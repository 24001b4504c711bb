package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cstrace"
	"cstrace/internal/analysis"
	"cstrace/internal/metricstore"
	"cstrace/internal/metricsvc"
	"cstrace/internal/sched"
)

// fileAnalysis is what the benchmark keeps of one AnalyzeTrace call.
type fileAnalysis struct {
	table      analysis.TableII
	report     [sha256.Size]byte // digest of the rendered report
	records    int64
	depths     []analysis.GroupDepth
	rebalances int
}

// analyzeFiles runs the full paper-suite analysis of every capture file
// from disk, as `cstrace -mode analyze -in <file> -parallel <par>` does,
// and returns the time spent in opening and analyzing. Rendering the
// reports for the byte-identity check is not timed.
func analyzeFiles(files []string, par int, wrap func(*os.File) io.Reader) (span, []fileAnalysis, error) {
	out := make([]fileAnalysis, len(files))
	var total span
	for i, path := range files {
		t0 := now()
		f, err := os.Open(path)
		if err != nil {
			return span{}, nil, err
		}
		var src io.Reader = f
		if wrap != nil {
			src = wrap(f)
		}
		a, err := cstrace.AnalyzeTrace(src, par)
		total = total.plus(t0.since())
		f.Close()
		if err != nil {
			return span{}, nil, fmt.Errorf("analyze %s: %w", path, err)
		}
		h := sha256.New()
		if err := a.WriteReport(h); err != nil {
			return span{}, nil, err
		}
		fa := fileAnalysis{table: a.TableII, records: a.Records, depths: a.GroupDepths, rebalances: len(a.Rebalances)}
		h.Sum(fa.report[:0])
		out[i] = fa
	}
	return total, out, nil
}

// checkTable compares one file's Table II packet and byte totals with the
// reference.
func checkTable(t analysis.TableII, f *refFile) error {
	switch {
	case t.PacketsIn != f.in || t.PacketsOut != f.out:
		return fmt.Errorf("table II packets in/out %d/%d, reference %d/%d", t.PacketsIn, t.PacketsOut, f.in, f.out)
	case int64(t.BytesIn) != f.wireIn() || int64(t.BytesOut) != f.wireOut():
		return fmt.Errorf("table II bytes in/out %d/%d, reference %d/%d", t.BytesIn, t.BytesOut, f.wireIn(), f.wireOut())
	}
	return nil
}

// checkSame is the byte-identity property: two renderings (or two
// captures) of the same input must not differ in a single byte.
func checkSame(what string, a, b []byte) error {
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s differ", what)
	}
	return nil
}

// checkCapture compares the writers' count and the generator's own tally
// with the reference.
func checkCapture(c *captured, ref *reference) error {
	t := ref.totals()
	switch {
	case c.records != t.in+t.out:
		return fmt.Errorf("writers counted %d records, reference %d", c.records, t.in+t.out)
	case c.stats.PacketsIn != t.in || c.stats.PacketsOut != t.out:
		return fmt.Errorf("generator packets in/out %d/%d, reference %d/%d", c.stats.PacketsIn, c.stats.PacketsOut, t.in, t.out)
	case c.stats.AppBytesIn != t.appIn || c.stats.AppBytesOut != t.appOut:
		return fmt.Errorf("generator bytes in/out %d/%d, reference %d/%d", c.stats.AppBytesIn, c.stats.AppBytesOut, t.appIn, t.appOut)
	case len(c.files) != len(ref.files):
		return fmt.Errorf("%d capture files, reference %d", len(c.files), len(ref.files))
	}
	return nil
}

// fileDigests hashes every capture file: repeated captures of one seed
// must give the same bytes.
func fileDigests(files []string) ([]byte, error) {
	var all []byte
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		all = h.Sum(all)
	}
	return all, nil
}

// rangeQuery runs one time-slice analysis from disk and returns its
// latency and the records it analyzed.
func rangeQuery(path string, q query, wrap func(*os.File) io.Reader) (span, int64, error) {
	t0 := now()
	f, err := os.Open(path)
	if err != nil {
		return span{}, 0, err
	}
	var src io.Reader = f
	if wrap != nil {
		src = wrap(f)
	}
	a, err := cstrace.AnalyzeTraceRange(src, sched.Auto, q.from, q.to)
	d := t0.since()
	f.Close()
	if err != nil {
		return span{}, 0, fmt.Errorf("range %s [%v,%v): %w", path, q.from, q.to, err)
	}
	return d, a.Records, nil
}

func checkRange(got int64, f *refFile, q query) error {
	if want := f.between(q.from, q.to); got != want {
		return fmt.Errorf("range [%v,%v) analyzed %d records, reference %d", q.from, q.to, got, want)
	}
	return nil
}

// ingested is what the daemon left in the store.
type ingested struct {
	elapsed    span
	closeDur   time.Duration // Engine.Close: partial window and service row
	service    *metricstore.Run
	perFile    []float64 // the `records` trend over the per-file rows
	windowRows int
	rows       int
	template   *metricstore.Run // a copy of the first per-file row
}

// ingest runs the continuous-analysis daemon over the capture directory
// as a spool into a fresh store: one sweep (or perFile, which ingests the
// same files one by one), then Close (partial window and service row).
// Every store append is fsync'd. The store is left open for the checks
// that follow; the caller closes it.
func ingest(w *workload, spool, storePath string, perFile func(*metricsvc.Engine) error) (*metricstore.Store, *ingested, error) {
	st, err := metricstore.Open(storePath)
	if err != nil {
		return nil, nil, err
	}
	t0 := now()
	eng, err := metricsvc.New(metricsvc.Config{
		Store: st, Spool: spool, Window: w.window, Parallelism: sched.Auto, Label: "spinebench",
	})
	if err == nil {
		if perFile != nil {
			err = perFile(eng)
		} else {
			_, err = eng.Sweep()
		}
	}
	var svc *metricstore.Run
	t1 := time.Now()
	if err == nil {
		svc, err = eng.Close()
	}
	elapsed := t0.since()
	closeDur := time.Since(t1)
	if err != nil {
		st.Close()
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	in := &ingested{elapsed: elapsed, closeDur: closeDur, service: svc, rows: st.Len()}
	pts, err := metricstore.Trend(st, "records", 0, metricstore.KindTrace)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	for _, p := range pts {
		in.perFile = append(in.perFile, p.Value)
	}
	for _, r := range st.Runs() {
		switch {
		case r.Kind == metricstore.KindWindow:
			in.windowRows++
		case r.Kind == metricstore.KindTrace && in.template == nil:
			row := *r
			in.template = &row
		}
	}
	return st, in, nil
}

// checkIngest compares the store the daemon left with the reference: one
// per-file row per capture file with its record count, the service row's
// total, and one window row per non-empty window of the stitched spool.
func checkIngest(in *ingested, ref *reference) error {
	return errors.Join(checkPerFile(in.perFile, ref), checkService(in.service, ref), checkWindows(in.windowRows, ref))
}

func checkPerFile(perFile []float64, ref *reference) error {
	if len(perFile) != len(ref.files) {
		return fmt.Errorf("%d per-file rows, reference %d files", len(perFile), len(ref.files))
	}
	for i, v := range perFile {
		if want := ref.files[i].in + ref.files[i].out; int64(v) != want {
			return fmt.Errorf("file %d: records trend %v, reference %d", i, v, want)
		}
	}
	return nil
}

func checkService(svc *metricstore.Run, ref *reference) error {
	if svc == nil {
		return errors.New("no service row")
	}
	if svc.Records != ref.records() {
		return fmt.Errorf("service row records %d, reference %d", svc.Records, ref.records())
	}
	return nil
}

func checkWindows(rows int, ref *reference) error {
	if want := ref.windowRows(); rows != want {
		return fmt.Errorf("%d window rows, reference %d", rows, want)
	}
	return nil
}

// resweep runs a second daemon over the same spool into the same store:
// every file and the service row dedupe, so no row may be added.
func resweep(w *workload, st *metricstore.Store, spool string) (int, error) {
	eng, err := metricsvc.New(metricsvc.Config{
		Store: st, Spool: spool, Window: w.window, Parallelism: sched.Auto, Label: "spinebench",
	})
	if err != nil {
		return 0, err
	}
	if _, err := eng.Sweep(); err != nil {
		eng.Close()
		return 0, err
	}
	if _, err := eng.Close(); err != nil {
		return 0, err
	}
	return st.Len(), nil
}

func checkRows(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: %d rows, want %d", what, got, want)
	}
	return nil
}

// trendMetrics lists the store's trend registry by name.
func trendMetrics() []string {
	var names []string
	for _, line := range metricstore.Metrics() {
		names = append(names, strings.Fields(line)[0])
	}
	return names
}

// storeQuery does what `cstrace -mode trend` does, once per registry
// metric: open the store (a full replay), trend the metric over the last
// 20 runs, close. It returns the time and the row count the replay found.
func storeQuery(storePath string, metrics []string, timeOpen, timeTrend func(time.Duration)) (span, int, error) {
	t0 := now()
	st, err := metricstore.Open(storePath)
	if err != nil {
		return span{}, 0, err
	}
	if timeOpen != nil {
		timeOpen(time.Since(t0.wall))
	}
	for _, m := range metrics {
		t1 := time.Now()
		if _, err := metricstore.Trend(st, m, 20); err != nil {
			st.Close()
			return span{}, 0, err
		}
		if timeTrend != nil {
			timeTrend(time.Since(t1))
		}
	}
	rows := st.Len()
	err = st.Close()
	return t0.since(), rows, err
}
