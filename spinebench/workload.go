package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"cstrace"
	"cstrace/internal/gamesim"
	"cstrace/internal/sched"
)

// A workload is one seeded set of inputs for the spine: what is captured,
// how the capture is cut into files, the daemon's rolling window and the
// fixed set of time-slice queries.
type workload struct {
	name string
	seed uint64

	// gen is the paper server of archive and spool (the -mode gen path);
	// fleet is the launch-day fleet of -mode scenario -out. Exactly one is
	// set.
	gen   *gamesim.Config
	fleet *cstrace.ScenarioConfig
	// servers is how many gen servers are captured one after another, each
	// for gen.Duration with a seed of its own (serverSeed). Spreading the
	// spool over several servers averages out how busy each seed's server
	// happens to be, so the spool's records, files and store rows, and
	// with them its per-file costs, vary little from seed to seed.
	servers int

	// rotate cuts the capture into files of this many records (0 = one
	// file). Each file is a trace of its own, timed from its own start.
	rotate int
	// window is the daemon's rolling trace-time window.
	window time.Duration
	// span is the capture's nominal trace-time length.
	span time.Duration

	// queries is the fixed set of time-slice analyses run every round,
	// drawn once the first capture has been counted; querySize bounds the
	// records each slice covers.
	queries   []query
	querySize [2]int64
}

// A query is one AnalyzeTraceRange call: records with from ≤ T < to of
// capture file number file. Bounds are whole seconds, so the reference's
// per-second counts give the expected record count exactly.
type query struct {
	file     int
	from, to time.Duration
}

// Sizes of the three workloads. They are chosen so that one round of every
// phase takes one to three seconds on a 2-core host, and a run holds ten
// rounds or more to take medians over.
const (
	archiveSpan  = 45 * time.Minute
	spoolSpan    = time.Hour
	spoolServers = 8
	spoolRotate  = 8192 // records per spool file: about 10 s of one server
	spoolWindow  = 5 * time.Second
	fleetServers = 16
	fleetSpan    = 2 * time.Minute
	// rangeQueries slices are drawn per run; every round runs all of them,
	// so each query's latency is a median over the measured rounds.
	rangeQueries = 100
	// storeQueries is how many store queries (open, trend every metric,
	// close) a round times.
	storeQueries = 5
	// sweepRecords bounds the records the traced run holds in memory for
	// the collector sweeps.
	sweepRecords = 1 << 20
)

var workloadNames = []string{"archive", "spool", "fleet"}

// newWorkload derives a workload's inputs from its seed. The program
// receives only what is built here and the slices drawn by makeQueries.
func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name, seed: seed, window: time.Minute, servers: 1}
	switch name {
	case "archive":
		w.gen = genConfig(seed, archiveSpan)
		w.span = archiveSpan
		w.querySize = [2]int64{4000, 48000} // about 5 s to 60 s
	case "spool":
		w.servers = spoolServers
		w.gen = genConfig(seed, spoolSpan/spoolServers)
		w.span = spoolSpan
		w.rotate = spoolRotate
		w.window = spoolWindow
		w.querySize = [2]int64{800, 4000} // about 1 s to 5 s
	case "fleet":
		cfg := fleetConfig(seed, fleetServers, fleetSpan)
		w.fleet = &cfg
		w.span = fleetSpan
		w.querySize = [2]int64{17000, 170000} // about 1 s to 10 s
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// genConfig is what `cstrace -mode gen -duration d` simulates.
func genConfig(seed uint64, d time.Duration) *gamesim.Config {
	cfg := gamesim.PaperConfig(seed)
	cfg.Duration = d
	cfg.Outages = nil
	cfg.Workers = sched.Auto
	return &cfg
}

// serverSeed is the seed of the k-th gen server of a workload: the
// workload's own for the first, one derived from it for the others.
func serverSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return rand.New(rand.NewPCG(seed, uint64(k))).Uint64()
}

// fleetConfig is what `cstrace -mode scenario -servers n -duration d -out`
// simulates with the CLI's other defaults (no stagger, 6× spike, auto
// parallelism).
func fleetConfig(seed uint64, n int, d time.Duration) cstrace.ScenarioConfig {
	cfg := cstrace.LaunchDay(seed, n)
	cfg.Spec.Duration = d
	cfg.Spec.Stagger = 0
	cfg.Spec.SpikeMult = 6
	cfg.Parallelism = sched.Auto
	cfg.GenWorkers = sched.Auto
	cfg.PerServer = cstrace.PerServerNone
	return cfg
}

// makeQueries draws the workload's time slices from its seed and the
// reference's per-second counts of the first capture: a file, a whole
// second in it, and as many whole seconds from there as it takes to cover
// a number of records. The record counts are spread evenly over querySize,
// the same on every seed; the seed picks where each slice falls and the
// order the slices run in. Sizing slices by records keeps the work per
// query alike across seeds, whose servers differ in how busy they are.
func makeQueries(w *workload, ref *reference, n int) []query {
	rng := rand.New(rand.NewPCG(w.seed, 0x7175657279))
	lo, hi := w.querySize[0], w.querySize[1]
	qs := make([]query, n)
	for i, k := range rng.Perm(n) {
		fi := rng.IntN(len(ref.files))
		ps := ref.files[fi].perSecond
		target := lo + (hi-lo)*int64(2*k+1)/int64(2*n)
		from := rng.IntN(len(ps))
		to, sum := from, int64(0)
		for to < len(ps) && sum < target {
			sum += ps[to]
			to++
		}
		for from > 0 && sum < target {
			from--
			sum += ps[from]
		}
		qs[i] = query{file: fi, from: time.Duration(from) * time.Second, to: time.Duration(to) * time.Second}
	}
	return qs
}

// autoWorkers is the CLI's default -parallel: self-tuned from the worker
// budget.
const autoWorkers = sched.Auto

// describe states the workload's make-up in one line.
func (w *workload) describe() string {
	capture := fmt.Sprintf("one paper server, %v", w.span)
	if w.servers > 1 {
		capture = fmt.Sprintf("%d paper servers one after another, %v each", w.servers, w.gen.Duration)
	}
	if w.fleet != nil {
		capture = fmt.Sprintf("launch-day fleet of %d servers merged, %v", w.fleet.Spec.Servers, w.span)
	}
	files := "one file"
	if w.rotate > 0 {
		files = fmt.Sprintf("files of %d records", w.rotate)
	}
	return fmt.Sprintf("%s into %s; daemon window %v; %d range queries of %d-%d records and %d store queries per round",
		capture, files, w.window, rangeQueries, w.querySize[0], w.querySize[1], storeQueries)
}
