package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cstrace"
	"cstrace/internal/analysis"
	"cstrace/internal/gamesim"
	"cstrace/internal/metricstore"
	"cstrace/internal/metricsvc"
	"cstrace/internal/scenario"
	"cstrace/internal/trace"
)

// The traced run repeats the untraced round with instruments at the layer
// boundaries, then probes each layer through its public functions from
// here. Self times come from serial settings, where every call runs on one
// goroutine; parallel layers report wall time per record and shard depths.
// Nothing inside the program is instrumented.

// tracer collects one traced run's per-layer samples.
type tracer struct {
	samples map[string][]float64 // per-layer metric → one value per round (or per call)
	units   map[string]string
	e       e2e // the traced run's own end-to-end numbers

	depthSum, depthBlocks [2]int64 // ingest-worker channel depths of the auto analyses
	rangeBytes, rangeRecs int64
	fileMs                []float64
}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, units: map[string]string{}}
}

func (t *tracer) add(name, unit string, v float64) {
	t.samples[name] = append(t.samples[name], v)
	t.units[name] = unit
}

// traced runs traced rounds until the deadline and reduces every layer's
// samples to its median (latency percentiles pool their samples).
func (b *bench) traced() (map[string]metric, error) {
	tr := newTracer()
	b.tr = tr
	if err := b.rounds(); err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for name, vs := range tr.samples {
		out[name] = metric{median(vs), tr.units[name]}
	}
	for i := range tr.depthSum {
		out[fmt.Sprintf("analysis.shard.w%d.mean_depth", i)] = metric{ratio(tr.depthSum[i], tr.depthBlocks[i]), "blocks"}
	}
	out["trace.range.read_b_per_rec"] = metric{ratio(tr.rangeBytes, tr.rangeRecs), "B/rec"}
	out["metricsvc.file_p50_ms"] = metric{quantile(tr.fileMs, 0.5), "ms"}
	out["metricsvc.file_p90_ms"] = metric{quantile(tr.fileMs, 0.9), "ms"}
	for name, m := range tr.e.metrics() {
		if m.Unit != "B/rec" && m.Unit != "B/row" {
			out["traced."+name] = m
		}
	}
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// memDelta is allocation and GC cycles: a snapshot from memNow, or the
// difference between two.
type memDelta struct{ alloc, gcs uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, uint64(ms.NumGC)}
}

// since is the allocation and GC cycles from snapshot m until now.
func (m memDelta) since() memDelta {
	now := memNow()
	return memDelta{now.alloc - m.alloc, now.gcs - m.gcs}
}

// phase records a phase's allocation per record and GC cycles.
func (t *tracer) phase(name string, d memDelta, records int64) {
	t.add(name+".alloc_b_per_rec", "B/rec", float64(d.alloc)/float64(records))
	t.add(name+".gc_cycles", "count", float64(d.gcs))
}

// analyses records one round's auto analyses: channel depths of the first
// two ingest workers, pooled over the run, and the adaptive shard's unit
// moves in the round.
func (t *tracer) analyses(as []fileAnalysis) {
	moves := 0
	for _, a := range as {
		for i, d := range a.depths {
			if i < len(t.depthSum) {
				t.depthSum[i] += d.SumDepth
				t.depthBlocks[i] += d.Blocks
			}
		}
		moves += a.rebalances
	}
	t.add("analysis.shard.rebalances", "count", float64(moves))
}

// countingFile counts the bytes the reader fetches from a trace file. It
// forwards ReadAt and Seek, which the reader probes for: without them the
// reader would take its serial fallback and the traced run would measure
// another program.
type countingFile struct {
	f *os.File
	n *atomic.Int64
}

func (c countingFile) Read(p []byte) (int, error) {
	n, err := c.f.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.f.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

func (c countingFile) Seek(off int64, whence int) (int64, error) { return c.f.Seek(off, whence) }

// ingestEach is the daemon's sweep done file by file through the public
// IngestFile, in the order Sweep takes them, timing each file.
func (t *tracer) ingestEach(eng *metricsvc.Engine, files []string) error {
	for _, path := range files {
		t0 := time.Now()
		if _, _, err := eng.IngestFile(path); err != nil {
			return err
		}
		t.fileMs = append(t.fileMs, ms(time.Since(t0)))
	}
	return nil
}

// rchar is the process's read-syscall byte count from /proc/self/io.
func rchar() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// probes measures each layer from outside, after a traced round's
// end-to-end phases. c is the round's capture, ref its reference and
// template a stored per-file row.
func (b *bench) probes(c *captured, ref *reference, template *metricstore.Run) error {
	t := b.tr
	if err := b.probeCapture(c); err != nil {
		return err
	}
	if err := b.probeScenario(); err != nil {
		return err
	}
	if err := b.probeTrace(c, ref); err != nil {
		return err
	}
	if err := b.probeAnalysis(c); err != nil {
		return err
	}
	return t.probeStore(filepath.Join(b.dir, "append.csms"), template)
}

// probeCapture repeats the capture with every worker count at 1, timing
// the generator's downstream, the Writer's calls and the file writes they
// make. Its files must be byte-identical to the round's capture.
func (b *bench) probeCapture(c *captured) error {
	t := b.tr
	dir := filepath.Join(b.dir, "serial")
	if err := resetDir(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ref := newReference(b.w.rotate, b.w.window)
	p := &writeProbe{}
	sc, err := capture(b.w, dir, ref, true, p)
	if err != nil {
		return err
	}
	a, err := fileDigests(c.files)
	if err != nil {
		return err
	}
	s, err := fileDigests(sc.files)
	if err != nil {
		return err
	}
	b.op("serial capture", errors.Join(checkCapture(sc, ref), checkSame("serial and auto capture files", a, s)))
	recs := float64(sc.records)
	t.add("trace.write.ns_per_rec", "ns/rec", float64(p.write-p.io)/recs)
	for _, d := range p.seals {
		t.add("trace.write.seal_ms", "ms", ms(d))
	}
	if b.w.fleet != nil {
		t.add("scenario.ns_per_rec", "ns/rec", float64(sc.runWall)/recs)
		t.add("scenario.blocks_per_krec", "blocks/krec", float64(p.blocks)*1000/recs)
		return nil
	}
	t.add("gamesim.ns_per_rec", "ns/rec", float64(sc.runWall-p.handler)/recs)
	t.add("gamesim.first_rec_ms", "ms", ms(p.first))
	return nil
}

// probeScenario measures the layer the capture does not go through: the
// generator alone for each fleet server, or the scenario runner over the
// first gen server of archive and spool.
func (b *bench) probeScenario() error {
	t := b.tr
	if b.w.fleet != nil {
		servers, err := b.w.fleet.Spec.Build()
		if err != nil {
			return err
		}
		var self time.Duration
		var recs int64
		for _, sp := range servers {
			cfg := sp.Game
			cfg.Workers = 1
			p := &writeProbe{start: time.Now()}
			if _, err := gamesim.Run(cfg, &downstream{p: p, next: &discard{}}, nil); err != nil {
				return err
			}
			self += time.Since(p.start) - p.handler
			recs += p.records
			t.add("gamesim.first_rec_ms", "ms", ms(p.first))
		}
		t.add("gamesim.ns_per_rec", "ns/rec", float64(self)/float64(recs))
		return nil
	}
	cfg := *b.w.gen
	cfg.Workers = 1
	p := &writeProbe{}
	t0 := time.Now()
	_, err := cstrace.RunScenario(cstrace.ScenarioConfig{
		Servers:     []scenario.ServerSpec{{Name: "srv00", Game: cfg}},
		Parallelism: 1,
		GenWorkers:  1,
		Extra:       &downstream{p: p, next: &discard{}},
	})
	if err != nil {
		return err
	}
	t.add("scenario.ns_per_rec", "ns/rec", float64(time.Since(t0))/float64(p.records))
	t.add("scenario.blocks_per_krec", "blocks/krec", float64(p.blocks)*1000/float64(p.records))
	return nil
}

// discard is a sink shaped like the sharded analysis suite — it takes
// decoded blocks and column blocks by ownership — so the reader takes the
// path it takes into the analysis. It counts records and frees the blocks.
type discard struct{ n int64 }

func (d *discard) Handle(trace.Record)           { d.n++ }
func (d *discard) HandleBatch(rs []trace.Record) { d.n += int64(len(rs)) }
func (d *discard) IngestBlock(blk *trace.Block) {
	d.n += int64(len(*blk))
	trace.FreeBlock(blk)
}
func (d *discard) IngestColumns(cb *trace.ColumnBlock) {
	d.n += int64(cb.Len())
	trace.FreeColumnBlock(cb)
}

// probeTrace measures the trace layer on the round's files: index reads,
// per-column footprint, and full decode at one and two workers.
func (b *bench) probeTrace(c *captured, ref *reference) error {
	t := b.tr
	var stored [4]int64
	var decode [2]time.Duration
	for i, path := range c.files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		t0 := time.Now()
		ix, err := trace.ReadIndex(f, st.Size())
		t.add("trace.index.us", "us", float64(time.Since(t0))/1e3)
		if err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		cs, err := trace.ReadColumnStats(f, ix)
		f.Close()
		if err != nil {
			return err
		}
		for k := range stored {
			stored[k] += cs.Stored[k]
		}
		for k, workers := range []int{1, 2} {
			d, n, err := decodeFile(path, workers, &discard{})
			if err != nil {
				return err
			}
			decode[k] += d
			b.op("decode", checkDecoded(n, &ref.files[i], workers))
		}
	}
	recs := float64(c.records)
	for i, name := range (trace.ColumnStats{}).ColumnNames() {
		t.add("trace.col."+name+".b_per_rec", "B/rec", float64(stored[i])/recs)
	}
	t.add("trace.read.ns_per_rec", "ns/rec", float64(decode[0])/recs)
	t.add("trace.read_par.ns_per_rec", "ns/rec", float64(decode[1])/recs)
	return nil
}

func checkDecoded(n int64, f *refFile, workers int) error {
	if want := f.in + f.out; n != want {
		return fmt.Errorf("decode at %d workers delivered %d records, reference %d", workers, n, want)
	}
	return nil
}

func decodeFile(path string, workers int, h trace.Handler) (time.Duration, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	t0 := time.Now()
	n, err := trace.NewReader(f).ReadAllSharded(h, workers)
	return time.Since(t0), n, err
}

// columns holds decoded blocks in memory for the collector sweeps, up to a
// record cap: every column block as delivered, and the same records as
// row blocks.
type columns struct {
	limit int
	n     int
	cols  []*trace.ColumnBlock
	rows  []trace.Block
}

func (c *columns) Handle(r trace.Record) { c.HandleBatch([]trace.Record{r}) }
func (c *columns) HandleBatch(rs []trace.Record) {
	if c.n < c.limit {
		c.rows = append(c.rows, append(trace.Block(nil), rs...))
		c.n += len(rs)
	}
}
func (c *columns) IngestBlock(blk *trace.Block) {
	c.HandleBatch(*blk)
	trace.FreeBlock(blk)
}
func (c *columns) IngestColumns(cb *trace.ColumnBlock) {
	if c.n < c.limit {
		c.cols = append(c.cols, &trace.ColumnBlock{
			T:      append([]time.Duration(nil), cb.T...),
			Flags:  append([]uint8(nil), cb.Flags...),
			Client: append([]uint32(nil), cb.Client...),
			App:    append([]uint16(nil), cb.App...),
		})
		c.rows = append(c.rows, cb.AppendRecords(nil))
		c.n += cb.Len()
	}
	trace.FreeColumnBlock(cb)
}

// probeAnalysis sweeps in-memory blocks through a serial suite, then
// through each collector alone (rows, and columns where the collector takes
// them), and times suite construction and Summarize.
func (b *bench) probeAnalysis(c *captured) error {
	t := b.tr
	mem := &columns{limit: sweepRecords}
	for _, path := range c.files {
		if mem.n >= mem.limit {
			break
		}
		if _, _, err := decodeFile(path, 2, mem); err != nil {
			return err
		}
	}
	suite, err := analysis.NewSuite(analysis.SuiteConfig{SortedInput: true})
	if err != nil {
		return err
	}
	rowRecs := 0
	for _, blk := range mem.rows {
		rowRecs += len(blk)
	}
	t0 := time.Now()
	for _, blk := range mem.rows {
		suite.HandleBatch(blk)
	}
	t.add("analysis.sweep.ns_per_rec", "ns/rec", float64(time.Since(t0))/float64(rowRecs))

	reps := 0
	t0 = time.Now()
	for time.Since(t0) < 50*time.Millisecond || reps < 5 {
		analysis.Summarize(suite, 0)
		reps++
	}
	t.add("analysis.summarize_us", "us", float64(time.Since(t0))/1e3/float64(reps))

	fresh, err := analysis.NewSuite(analysis.SuiteConfig{SortedInput: true})
	if err != nil {
		return err
	}
	for _, col := range collectorSweeps(fresh) {
		t0 := time.Now()
		for _, blk := range mem.rows {
			col.rows(blk)
		}
		t.add("analysis.sweep."+col.name+".ns_per_rec", "ns/rec", float64(time.Since(t0))/float64(rowRecs))
		if col.cols == nil {
			continue
		}
		colRecs := 0
		t0 = time.Now()
		for _, cb := range mem.cols {
			col.cols(cb)
			colRecs += cb.Len()
		}
		if colRecs == 0 {
			return fmt.Errorf("no column blocks decoded for the %s column sweep", col.name)
		}
		t.add("analysis.cols."+col.name+".ns_per_rec", "ns/rec", float64(time.Since(t0))/float64(colRecs))
	}

	reps = 0
	t0 = time.Now()
	for time.Since(t0) < 50*time.Millisecond || reps < 5 {
		s, err := analysis.NewSuite(analysis.SuiteConfig{SortedInput: true})
		if err != nil {
			return err
		}
		_, closeSink := s.Sink(autoWorkers)
		closeSink()
		reps++
	}
	t.add("analysis.new_suite_us", "us", float64(time.Since(t0))/1e3/float64(reps))
	return nil
}

// collectorSweep is one collector of the paper suite, named as the
// adaptive shard names its units.
type collectorSweep struct {
	name string
	rows func([]trace.Record)
	cols func(*trace.ColumnBlock) // nil where the collector takes no columns
}

func collectorSweeps(s *analysis.Suite) []collectorSweep {
	return []collectorSweep{
		{"count", s.Count.HandleBatch, nil},
		{"sizes", s.Sizes.HandleBatch, s.Sizes.HandleColumns},
		{"flows", s.Flows.HandleBatch, nil},
		{"kinds", s.Kinds.HandleBatch, nil},
		{"minutes", s.Minutes.HandleBatch, nil},
		{"vt", s.VT.HandleBatch, nil},
		{"windows", func(rs []trace.Record) {
			for _, w := range s.Windows {
				w.HandleBatch(rs)
			}
		}, nil},
		{"gaps", s.Gaps.HandleBatch, s.Gaps.HandleColumns},
		{"tick", s.Tick.HandleBatch, nil},
	}
}

// appendSamples is how many fsync'd appends the store probe times.
const appendSamples = 2000

// probeStore appends distinct copies of a stored row to a fresh store,
// one fsync'd Ingest each.
func (t *tracer) probeStore(path string, template *metricstore.Run) error {
	if template == nil {
		return fmt.Errorf("store probe: no per-file row to copy")
	}
	os.Remove(path)
	defer os.Remove(path)
	st, err := metricstore.Open(path)
	if err != nil {
		return err
	}
	lat := make([]float64, 0, appendSamples)
	for i := 0; i < appendSamples; i++ {
		row := *template
		row.Hash = fmt.Sprintf("%064x", i+1)
		t0 := time.Now()
		_, added, err := st.Ingest(&row)
		lat = append(lat, float64(time.Since(t0))/1e3)
		if err == nil && !added {
			err = fmt.Errorf("store probe: row %d deduplicated", i)
		}
		if err != nil {
			st.Close()
			return err
		}
	}
	t.add("metricstore.append_p50_us", "us", quantile(lat, 0.5))
	t.add("metricstore.append_p90_us", "us", quantile(lat, 0.9))
	return st.Close()
}
