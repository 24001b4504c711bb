package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestChecksCatchOffByOne runs every workload at a tiny size through each
// phase and shows that every check passes against the true reference and
// fails against one that is off by one record or one byte, so that no
// check passes vacuously.
func TestChecksCatchOffByOne(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := tinyWorkload(t, name)
			dir := t.TempDir()
			spool := filepath.Join(dir, "spool")
			if err := os.Mkdir(spool, 0o755); err != nil {
				t.Fatal(err)
			}
			ref := newReference(w.rotate, w.window)
			c, err := capture(w, spool, ref, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if w.rotate > 0 && len(c.files) < 3 {
				t.Fatalf("tiny spool has %d files; the checks need several", len(c.files))
			}
			check(t, "capture", checkCapture(c, ref),
				checkCapture(c, plusRecord(ref, 0, 0)), checkCapture(c, plusByte(ref, 0)))

			again := filepath.Join(dir, "again")
			if err := os.Mkdir(again, 0o755); err != nil {
				t.Fatal(err)
			}
			c2, err := capture(w, again, newReference(w.rotate, w.window), true, &writeProbe{})
			if err != nil {
				t.Fatal(err)
			}
			d1, d2 := digests(t, c.files), digests(t, c2.files)
			check(t, "capture digest", checkSame("digests", d1, d2), checkSame("digests", d1, flipByte(d2)))

			_, auto, err := analyzeFiles(c.files, autoWorkers, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, serial, err := analyzeFiles(c.files, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.files {
				for _, a := range []fileAnalysis{auto[i], serial[i]} {
					check(t, "table II", checkTable(a.table, &ref.files[i]),
						checkTable(a.table, &plusRecord(ref, i, 0).files[i]),
						checkTable(a.table, &plusByte(ref, i).files[i]))
				}
				check(t, "reports", checkSame("reports", auto[i].report[:], serial[i].report[:]),
					checkSame("reports", auto[i].report[:], flipByte(serial[i].report[:])))
			}

			for _, q := range makeQueries(w, ref, 10) {
				_, n, err := rangeQuery(c.files[q.file], q, nil)
				if err != nil {
					t.Fatal(err)
				}
				inside := int(q.from / time.Second)
				check(t, "range", checkRange(n, &ref.files[q.file], q),
					checkRange(n, &plusRecord(ref, q.file, inside).files[q.file], q))
			}

			st, in, err := ingest(w, spool, filepath.Join(dir, "m.csms"), nil)
			if err != nil {
				t.Fatal(err)
			}
			last := len(ref.files) - 1
			check(t, "per-file rows", checkPerFile(in.perFile, ref), checkPerFile(in.perFile, plusRecord(ref, last, 0)))
			check(t, "service row", checkService(in.service, ref), checkService(in.service, plusRecord(ref, last, 0)))
			check(t, "window rows", checkWindows(in.windowRows, ref), checkWindows(in.windowRows, plusWindow(ref)))
			rows, err := resweep(w, st, spool)
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			check(t, "second sweep", checkRows("second sweep", rows, in.rows), checkRows("second sweep", rows, in.rows+1))
			_, reopened, err := storeQuery(filepath.Join(dir, "m.csms"), trendMetrics(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "reopen", checkRows("reopen", reopened, in.rows), checkRows("reopen", reopened, in.rows+1))
		})
	}
}

// tinyWorkload shrinks a workload so that a whole round takes a moment.
func tinyWorkload(t *testing.T, name string) *workload {
	w, err := newWorkload(name, 7)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "archive":
		w.gen.Duration = 3 * time.Minute
		w.querySize = [2]int64{500, 2000}
	case "spool":
		w.servers = 2
		w.gen.Duration = time.Minute
		w.rotate = 20000
		w.querySize = [2]int64{200, 800}
	case "fleet":
		w.fleet.Spec.Servers = 3
		w.fleet.Spec.Duration = 20 * time.Second
		w.querySize = [2]int64{2000, 8000}
	}
	return w
}

// check wants ok to be nil and every perturbed result to be an error.
func check(t *testing.T, what string, ok error, perturbed ...error) {
	t.Helper()
	if ok != nil {
		t.Errorf("%s: fails against the true reference: %v", what, ok)
	}
	for i, err := range perturbed {
		if err == nil {
			t.Errorf("%s: passes against perturbed reference %d", what, i)
		}
	}
}

// clone deep-copies a reference so that a perturbation leaves the true one
// alone.
func clone(ref *reference) *reference {
	c := *ref
	c.files = slices.Clone(ref.files)
	for i := range c.files {
		c.files[i].perSecond = slices.Clone(c.files[i].perSecond)
	}
	c.windows = slices.Clone(ref.windows)
	return &c
}

// plusRecord is the reference with one more inbound record, of no payload,
// in second sec of file fi.
func plusRecord(ref *reference, fi, sec int) *reference {
	c := clone(ref)
	f := &c.files[fi]
	f.in++
	f.perSecond[sec]++
	return c
}

// plusByte is the reference with one more inbound payload byte in file fi.
func plusByte(ref *reference, fi int) *reference {
	c := clone(ref)
	c.files[fi].appIn++
	return c
}

// plusWindow is the reference with one more record one window past the
// end of the stitched spool.
func plusWindow(ref *reference) *reference {
	c := clone(ref)
	c.windows = append(c.windows, true)
	return c
}

func flipByte(b []byte) []byte {
	c := slices.Clone(b)
	c[len(c)-1] ^= 1
	return c
}

func digests(t *testing.T, files []string) []byte {
	d, err := fileDigests(files)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
