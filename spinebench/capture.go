package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cstrace"
	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// captured is what one capture left on disk.
type captured struct {
	files   []string
	records int64 // sum of the writers' Count
	bytes   int64 // on-disk size of all files
	elapsed span
	// stats is the generator's own tally, summed over the servers
	// captured.
	stats gamesim.Stats
	// runWall is the generator call alone, without the final seal.
	runWall time.Duration
}

// capture simulates the workload and persists it the way the CLI does:
// `-mode gen` for each gen server in turn (rotated into a spool for
// spool), `-mode scenario -out` for the fleet. ref is tee'd onto the stream. serial pins
// every worker count to 1, and p, when set, times the writer and its file
// writes; both serve the traced run only.
func capture(w *workload, dir string, ref *reference, serial bool, p *writeProbe) (*captured, error) {
	if w.fleet != nil {
		return captureFleet(w, dir, ref, serial, p)
	}
	cfg := *w.gen
	if serial {
		cfg.Workers = 1
	}
	rot := &rotator{dir: dir, every: w.rotate, workers: cfg.Workers, probe: p}
	var h trace.Handler = trace.Tee(rot, ref)
	if p != nil {
		h = &downstream{p: p, next: h}
	}
	t0 := now()
	start := t0.wall
	if p != nil {
		p.start = start
	}
	var st gamesim.Stats
	var err error
	for k := 0; k < w.servers && err == nil; k++ {
		if k > 0 {
			// Each server's capture starts a file of its own.
			err = rot.cut()
			ref.cut()
		}
		cfg.Seed = serverSeed(w.seed, k)
		var s gamesim.Stats
		if s, err = gamesim.Run(cfg, h, nil); err == nil {
			addStats(&st, s)
		}
	}
	runWall := time.Since(start)
	if cerr := rot.close(); err == nil {
		err = cerr
	}
	elapsed := t0.since()
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return finishCapture(rot, st, elapsed, runWall)
}

func captureFleet(w *workload, dir string, ref *reference, serial bool, p *writeProbe) (*captured, error) {
	cfg := *w.fleet
	if serial {
		cfg.Parallelism, cfg.GenWorkers = 1, 1
	}
	// The merge's cross-server disorder stays within one tick window; the
	// CLI lets the Writer's 200 ms SortWindow restore strict order.
	rot := &rotator{dir: dir, workers: cfg.Parallelism, sortWindow: 200 * time.Millisecond, probe: p}
	cfg.Extra = trace.Tee(rot, ref)
	if p != nil {
		cfg.Extra = &downstream{p: p, next: cfg.Extra}
	}
	t0 := now()
	start := t0.wall
	if p != nil {
		p.start = start
	}
	res, err := cstrace.RunScenario(cfg)
	runWall := time.Since(start)
	if cerr := rot.close(); err == nil {
		err = cerr
	}
	elapsed := t0.since()
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	var sum gamesim.Stats
	for _, s := range res.Servers {
		addStats(&sum, s.Stats)
	}
	return finishCapture(rot, sum, elapsed, runWall)
}

// addStats adds a server's packet and byte tallies to sum.
func addStats(sum *gamesim.Stats, s gamesim.Stats) {
	sum.PacketsIn += s.PacketsIn
	sum.PacketsOut += s.PacketsOut
	sum.AppBytesIn += s.AppBytesIn
	sum.AppBytesOut += s.AppBytesOut
}

func finishCapture(rot *rotator, st gamesim.Stats, elapsed span, runWall time.Duration) (*captured, error) {
	c := &captured{files: rot.files, records: rot.count, elapsed: elapsed, stats: st, runWall: runWall}
	for _, path := range rot.files {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		c.bytes += fi.Size()
	}
	return c, nil
}

// rotator writes a time-ordered stream into trace files of a fixed number
// of records, each timed from the whole second its first record falls in,
// the way a capture rotating its output by size fills a spool. With every
// = 0 it is a single file and passes blocks to the Writer untouched,
// exactly as `-mode gen -out` does.
type rotator struct {
	dir        string
	every      int
	workers    int
	sortWindow time.Duration
	probe      *writeProbe

	f       *os.File
	w       *trace.Writer
	inFile  int
	base    time.Duration
	files   []string
	count   int64
	scratch trace.Block
	err     error
}

// Handle implements trace.Handler.
func (r *rotator) Handle(rec trace.Record) { r.HandleBatch([]trace.Record{rec}) }

// HandleBatch implements trace.BatchHandler.
func (r *rotator) HandleBatch(rs []trace.Record) {
	for len(rs) > 0 && r.err == nil {
		if r.w != nil && r.every > 0 && r.inFile == r.every {
			if r.err = r.seal(); r.err != nil {
				return
			}
		}
		if r.w == nil {
			if r.every > 0 {
				r.base = rs[0].T.Truncate(time.Second)
			}
			if r.err = r.open(); r.err != nil {
				return
			}
		}
		n := len(rs)
		if r.every > 0 && n > r.every-r.inFile {
			n = r.every - r.inFile
		}
		part := rs[:n]
		if r.base != 0 {
			r.scratch = append(r.scratch[:0], part...)
			for i := range r.scratch {
				r.scratch[i].T -= r.base
			}
			part = r.scratch
		}
		if r.probe != nil {
			t0 := time.Now()
			r.w.HandleBatch(part)
			r.probe.write += time.Since(t0)
		} else {
			r.w.HandleBatch(part)
		}
		r.inFile += n
		rs = rs[n:]
	}
}

func (r *rotator) open() error {
	path := filepath.Join(r.dir, fmt.Sprintf("cap-%05d.cst", len(r.files)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var dst io.Writer = f
	if r.probe != nil {
		dst = &timedFile{f: f, p: r.probe}
	}
	w := trace.NewWriter(dst)
	w.Workers = r.workers
	w.SortWindow = r.sortWindow
	r.f, r.w, r.inFile = f, w, 0
	r.files = append(r.files, path)
	return nil
}

// seal flushes the open file's Writer (index and footer) and closes it.
func (r *rotator) seal() error {
	if r.w == nil {
		return nil
	}
	t0 := time.Now()
	err := r.w.Flush()
	if r.probe != nil {
		d := time.Since(t0)
		r.probe.write += d
		r.probe.seals = append(r.probe.seals, d)
	}
	r.count += r.w.Count()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	r.w, r.f = nil, nil
	return err
}

// cut seals the open file, so that the next record starts a file of its
// own.
func (r *rotator) cut() error {
	if r.err == nil {
		r.err = r.seal()
	}
	return r.err
}

func (r *rotator) close() error {
	if r.err != nil {
		if r.f != nil {
			r.f.Close()
		}
		return r.err
	}
	return r.seal()
}

// writeProbe collects the traced run's capture-side timings.
type writeProbe struct {
	start   time.Time
	first   time.Duration // from the call to the first record downstream
	handler time.Duration // inside the generator's (or merge's) downstream
	write   time.Duration // inside Writer.HandleBatch and Writer.Flush
	io      time.Duration // inside the file writes those calls made
	seals   []time.Duration
	blocks  int64
	records int64
}

// downstream times everything the generator (or the fleet merge) hands
// its records to.
type downstream struct {
	p    *writeProbe
	next trace.Handler
}

func (d *downstream) Handle(r trace.Record) { d.HandleBatch([]trace.Record{r}) }

func (d *downstream) HandleBatch(rs []trace.Record) {
	t0 := time.Now()
	if d.p.records == 0 {
		d.p.first = t0.Sub(d.p.start)
	}
	d.p.blocks++
	d.p.records += int64(len(rs))
	trace.Dispatch(d.next, rs)
	d.p.handler += time.Since(t0)
}

// timedFile times the Writer's writes to its file. It forwards Sync, which
// the Writer probes for.
type timedFile struct {
	f *os.File
	p *writeProbe
}

func (t *timedFile) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := t.f.Write(b)
	t.p.io += time.Since(t0)
	return n, err
}

func (t *timedFile) Sync() error { return t.f.Sync() }
