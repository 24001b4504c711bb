// Command spinebench is the repository's benchmark: it runs the cstrace
// spine — capture (generate, encode, write), analysis from disk, time-slice
// queries, continuous-analysis daemon ingest into the metrics store, and
// store queries — on one of three seeded workloads, checks every phase
// against an independent count of what was captured, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Build and run it from the repository root through its script, which keeps
// every build and run artifact under .bench_build:
//
//	bash spinebench/run.sh --workload archive --seed 1 --seconds 20 --trace 0
//
// --trace 1 makes a separate traced run that times calls into each layer's
// public functions and reports the per-layer metrics instead (see
// README.md).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cstrace/internal/metricsvc"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 9
	// minRounds is the least number of rounds a run makes, however short
	// --seconds is. The first is a warm-up whose measurements are dropped.
	minRounds = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("spinebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: archive | spool | fleet")
	seed := fl.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := fl.Int("seconds", 20, "how long to keep starting new rounds")
	traceFlag := fl.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	repo := fl.String("repo", ".", "repository root, for the source digest in the host block")
	work := fl.String("work", filepath.Join(".bench_build", "spinebench-work"), "scratch directory for traces and stores")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "spinebench: --trace %d (want 0 or 1)\n", *traceFlag)
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	defer os.RemoveAll(dir)

	// Set-up is repeated so its median is steady: the host probe, the
	// source digest, a clean scratch directory and the seeded inputs. It is
	// timed in CPU time, the first repetition from process start.
	var (
		w      *workload
		host   hostInfo
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		cpu0 := cpuTime()
		if i == 0 {
			cpu0 = 0
		}
		var err error
		if host, err = probeHost(*repo); err == nil {
			if err = resetDir(dir); err == nil {
				w, err = newWorkload(*name, *seed)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "spinebench: setup: %v\n", err)
			return 1
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
	}
	host.print(stdout)
	fmt.Fprintf(stdout, "workload %s seed %d: %s\n", w.name, w.seed, w.describe())

	b := &bench{w: w, dir: dir, log: stdout, deadline: time.Now().Add(time.Duration(*seconds) * time.Second)}
	var metrics map[string]metric
	var err error
	if *traceFlag == 1 {
		metrics, err = b.traced()
	} else {
		err = b.rounds()
		metrics = b.e.metrics()
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["peak_rss_mb"] = metric{median(b.e.rssMB), "MB"}
	}
	if err != nil {
		fmt.Fprintf(stderr, "spinebench: %v\n", err)
		return 1
	}
	printMetrics(stdout, metrics)
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "spinebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one run's state: the workload, the check tally and the
// per-round measurements.
type bench struct {
	w        *workload
	dir      string
	log      io.Writer
	deadline time.Time

	attempted, failed int64
	firstDigest       []byte
	e                 e2e
	tr                *tracer // nil in the untraced run
}

// rounds repeats one round until the deadline has passed and at least
// minRounds are done. Every round makes the same operations and checks.
// Round 0 warms up: heap growth, page cache and pools settle there, so
// its measurements are dropped. Each round starts with the heap's free
// memory returned to the operating system (untimed), so that its peak
// resident set is its own.
func (b *bench) rounds() error {
	rss := startRSS()
	defer rss.stop()
	for r := 0; r < minRounds || time.Now().Before(b.deadline); r++ {
		debug.FreeOSMemory()
		rss.reset()
		t0 := time.Now()
		if err := b.round(r); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		ep := &b.e
		if b.tr != nil {
			ep = &b.tr.e
		}
		ep.rssMB = append(ep.rssMB, rss.reset())
		e := *ep
		fmt.Fprintf(b.log, "round %d: %.2fs, %d operations (%d failed) so far; capture %.3f analyze %.3f serial %.3f ingest %.3f Mrec/cpu_s (wall %.3f %.3f %.3f %.3f Mrec/s)\n",
			r, time.Since(t0).Seconds(), b.attempted, b.failed,
			last(e.capture), last(e.analyze), last(e.serial), last(e.ingest),
			e.wall[0], e.wall[1], e.wall[2], e.wall[3])
		if r == 0 {
			b.e = e2e{}
			if b.tr != nil {
				*b.tr = *newTracer()
			}
		}
	}
	return nil
}

// op counts one checked operation.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "CHECK FAILED %s: %v\n", what, err)
	}
}

// e2e collects the end-to-end measurements of a run, one entry per round
// (or per query for the latencies). Timings are CPU time: the user and
// system time of the process, summed over its threads, which a virtual
// host's steal time and waits on other tenants do not inflate. wall keeps
// the last round's wall-clock rates for the round log.
type e2e struct {
	capture, analyze, serial, ingest []float64   // Mrec per CPU second
	rangeMs                          [][]float64 // CPU ms of each run of each range query, by query
	queryMs                          []float64   // CPU ms
	bPerRec, bPerRow                 []float64
	rssMB                            []float64  // peak resident set of each round
	wall                             [4]float64 // capture, analyze, serial, ingest Mrec/s
}

func (e *e2e) metrics() map[string]metric {
	return map[string]metric{
		"capture_mrec_cpu_s":        {median(e.capture), "Mrec/cpu_s"},
		"trace_b_per_rec":           {median(e.bPerRec), "B/rec"},
		"analyze_mrec_cpu_s":        {median(e.analyze), "Mrec/cpu_s"},
		"analyze_serial_mrec_cpu_s": {median(e.serial), "Mrec/cpu_s"},
		"range_p50_cpu_ms":          {quantile(perQuery(e.rangeMs), 0.5), "cpu_ms"},
		"range_p90_cpu_ms":          {quantile(perQuery(e.rangeMs), 0.9), "cpu_ms"},
		"ingest_mrec_cpu_s":         {median(e.ingest), "Mrec/cpu_s"},
		"query_p50_cpu_ms":          {quantile(e.queryMs, 0.5), "cpu_ms"},
		"store_b_per_row":           {median(e.bPerRow), "B/row"},
	}
}

// round runs every phase of the spine once on fresh files and a fresh
// store, checking each against the reference. In the traced run it also
// feeds the tracer at the layer boundaries and then runs the layer probes.
func (b *bench) round(r int) error {
	w, tr := b.w, b.tr
	e := &b.e
	var wrap func(*os.File) io.Reader
	var fetched atomic.Int64
	var mem memDelta
	if tr != nil {
		e = &tr.e
		wrap = func(f *os.File) io.Reader { return countingFile{f, &fetched} }
	}
	spool, storePath, err := b.freshRound()
	if err != nil {
		return err
	}

	ref := newReference(w.rotate, w.window)
	settle()
	if tr != nil {
		mem = memNow()
	}
	c, err := capture(w, spool, ref, false, nil)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.phase("capture", mem.since(), c.records)
	}
	if err := b.checkCaptured(r, c, ref); err != nil {
		return err
	}
	// Write the capture back to disk before the next phase, so the kernel
	// does not do it in the middle of a later timed phase (the daemon's
	// fsync'd appends would otherwise wait for it).
	if err := syncFiles(c.files); err != nil {
		return err
	}
	if w.queries == nil {
		w.queries = makeQueries(w, ref, rangeQueries)
		fmt.Fprintf(b.log, "capture: %d records in %d files, %d bytes; %d daemon windows\n",
			c.records, len(c.files), c.bytes, ref.windowRows())
	}
	e.capture = append(e.capture, mrecs(c.records, c.elapsed.cpu))
	e.wall[0] = mrecs(c.records, c.elapsed.wall)
	e.bPerRec = append(e.bPerRec, float64(c.bytes)/float64(c.records))

	settle()
	if tr != nil {
		mem = memNow()
	}
	autoT, auto, err := analyzeFiles(c.files, autoWorkers, wrap)
	if err != nil {
		return err
	}
	var autoMem memDelta
	if tr != nil {
		autoMem = mem.since()
	}
	settle()
	if tr != nil {
		mem = memNow()
	}
	serT, serial, err := analyzeFiles(c.files, 1, wrap)
	if err != nil {
		return err
	}
	if tr != nil {
		serialMem := mem.since()
		tr.phase("analyze", memDelta{autoMem.alloc + serialMem.alloc, autoMem.gcs + serialMem.gcs}, 2*c.records)
		tr.analyses(auto)
	}
	b.checkAnalyses(auto, serial, ref)
	e.analyze = append(e.analyze, mrecs(c.records, autoT.cpu))
	e.wall[1] = mrecs(c.records, autoT.wall)
	e.serial = append(e.serial, mrecs(c.records, serT.cpu))
	e.wall[2] = mrecs(c.records, serT.wall)

	settle()
	fetched.Store(0)
	if e.rangeMs == nil {
		e.rangeMs = make([][]float64, len(w.queries))
	}
	for qi, q := range w.queries {
		d, n, err := rangeQuery(c.files[q.file], q, wrap)
		if err != nil {
			return err
		}
		b.op("range", checkRange(n, &ref.files[q.file], q))
		e.rangeMs[qi] = append(e.rangeMs[qi], ms(d.cpu))
		if tr != nil {
			tr.rangeBytes += fetched.Swap(0)
			tr.rangeRecs += n
		}
	}

	var perFile func(*metricsvc.Engine) error
	var read0 int64
	settle()
	if tr != nil {
		perFile = func(eng *metricsvc.Engine) error { return tr.ingestEach(eng, c.files) }
		read0 = rchar()
		mem = memNow()
	}
	st, in, err := ingest(w, spool, storePath, perFile)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.add("metricsvc.read_b_per_file_b", "B/B", float64(rchar()-read0)/float64(c.bytes))
		tr.phase("ingest", mem.since(), c.records)
		tr.add("metricsvc.ns_per_rec", "ns/rec", float64(in.elapsed.wall)/float64(c.records))
		tr.add("metricsvc.close_ms", "ms", ms(in.closeDur))
	}
	b.op("ingest", checkIngest(in, ref))
	rows, err := resweep(w, st, spool)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.op("second sweep", checkRows("second sweep of the same spool", rows, in.rows))
	e.ingest = append(e.ingest, mrecs(c.records, in.elapsed.cpu))
	e.wall[3] = mrecs(c.records, in.elapsed.wall)
	fi, err := os.Stat(storePath)
	if err != nil {
		return err
	}
	e.bPerRow = append(e.bPerRow, float64(fi.Size())/float64(in.rows))

	var timeOpen, timeTrend func(time.Duration)
	if tr != nil {
		timeOpen = func(d time.Duration) {
			tr.add("metricstore.open_us_per_row", "us/row", float64(d)/1e3/float64(in.rows))
		}
		timeTrend = func(d time.Duration) { tr.add("metricstore.trend_us", "us", float64(d)/1e3) }
	}
	names := trendMetrics()
	settle()
	for range storeQueries {
		d, rows, err := storeQuery(storePath, names, timeOpen, timeTrend)
		if err != nil {
			return err
		}
		b.op("store query", checkRows("reopened store", rows, in.rows))
		e.queryMs = append(e.queryMs, ms(d.cpu))
	}
	if tr != nil {
		return b.probes(c, ref, in.template)
	}
	return nil
}

// freshRound empties the round's spool directory and store.
func (b *bench) freshRound() (spool, storePath string, err error) {
	spool = filepath.Join(b.dir, "spool")
	storePath = filepath.Join(b.dir, "metrics.csms")
	if err := resetDir(spool); err != nil {
		return "", "", err
	}
	if err := os.Remove(storePath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", "", err
	}
	return spool, storePath, nil
}

// checkCaptured checks a capture against the reference and against the
// first round's capture of the same seed.
func (b *bench) checkCaptured(r int, c *captured, ref *reference) error {
	err := checkCapture(c, ref)
	b.op("capture", err)
	if len(c.files) != len(ref.files) {
		return errors.New("capture files and reference files disagree; later checks cannot pair them")
	}
	dig, derr := fileDigests(c.files)
	if derr != nil {
		return derr
	}
	if r == 0 {
		b.firstDigest = dig
	}
	b.op("capture digest", checkSame("SHA-256 of repeated captures of one seed", b.firstDigest, dig))
	return nil
}

// checkAnalyses checks both parallelisms' Table II against the reference
// and the two reports against each other, one operation per analysis.
func (b *bench) checkAnalyses(auto, serial []fileAnalysis, ref *reference) {
	for i := range auto {
		b.op("analyze auto", checkTable(auto[i].table, &ref.files[i]))
		b.op("analyze serial", errors.Join(
			checkTable(serial[i].table, &ref.files[i]),
			checkSame("serial and auto reports", auto[i].report[:], serial[i].report[:])))
	}
}

// settle collects garbage between phases, so that each timed phase starts
// from the same heap state instead of paying for the previous phase's
// garbage.
func settle() { runtime.GC() }

func syncFiles(files []string) error {
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

func mrecs(n int64, d time.Duration) float64 { return float64(n) / d.Seconds() / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perQuery is the median of each query's runs, so that every query weighs
// the same in the latency percentiles however many rounds ran it.
func perQuery(runs [][]float64) []float64 {
	var out []float64
	for _, xs := range runs {
		if len(xs) > 0 {
			out = append(out, median(xs))
		}
	}
	return out
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// hostInfo is the host block every run's output starts with.
type hostInfo struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
	commit     string
	source     string // SHA-256 over the repository's Go sources and go.mod files
}

func probeHost(repo string) (hostInfo, error) {
	h := hostInfo{
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     gitCommit(repo),
	}
	src, err := sourceDigest(repo)
	if err != nil {
		return h, err
	}
	h.source = src
	return h, nil
}

func (h hostInfo) print(w io.Writer) {
	fmt.Fprintf(w, "host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.commit, h.source)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the repository's .git directory without
// running git; a checkout that is not a git repository reports "none".
func gitCommit(repo string) string {
	head, err := os.ReadFile(filepath.Join(repo, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(repo, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(repo, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes the path and bytes of every .go and go.mod file
// under repo, in lexical order, skipping hidden and build directories. It
// identifies the code measured when there is no commit to name.
func sourceDigest(repo string) (string, error) {
	h := sha256.New()
	files := 0
	err := filepath.WalkDir(repo, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != repo && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		files++
		return nil
	})
	if err != nil {
		return "", err
	}
	if files == 0 {
		return "", fmt.Errorf("no Go sources under %s", repo)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
