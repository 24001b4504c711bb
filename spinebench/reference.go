package main

import (
	"time"

	"cstrace/internal/trace"
	"cstrace/internal/units"
)

// reference is the benchmark's own count of what a capture produced,
// tee'd onto the record stream before any program stage sees it. Every
// phase's output is checked against it. It splits the stream into files
// by the rule the capture rotates them with (every so many records, each
// file timed from the whole second its first record falls in), but shares
// no code with the rotation, the writer or the analysis.
type reference struct {
	rotate int           // records per file; 0 = one file
	window time.Duration // daemon window width

	inFile int64 // records in the last file
	cutNow bool  // the next record starts a file
	files  []refFile
	// windows marks the daemon windows that hold a record, on the
	// service timeline: each file rebased onto the end of the one before,
	// exactly as the daemon stitches a spool.
	windows []bool
}

// refFile is the reference's view of one capture file.
type refFile struct {
	base          time.Duration // trace time of the file's own zero
	offset        time.Duration // where the daemon's timeline puts that zero
	in, out       int64         // records per direction
	appIn, appOut int64         // application bytes per direction
	maxT          time.Duration // last file-relative timestamp
	perSecond     []int64       // records per whole second of file-relative time
}

func newReference(rotate int, window time.Duration) *reference {
	return &reference{rotate: rotate, window: window}
}

// Handle implements trace.Handler.
func (ref *reference) Handle(r trace.Record) { ref.HandleBatch([]trace.Record{r}) }

// HandleBatch implements trace.BatchHandler.
func (ref *reference) HandleBatch(rs []trace.Record) {
	for _, r := range rs {
		ref.add(r)
	}
}

// cut makes the next record start a file, as the capture does where one
// server's capture ends and the next one's begins.
func (ref *reference) cut() { ref.cutNow = true }

func (ref *reference) add(r trace.Record) {
	if len(ref.files) == 0 || ref.cutNow || (ref.rotate > 0 && ref.inFile == int64(ref.rotate)) {
		// A new file starts once the ones before it are complete (the
		// rotated capture is a time-ordered stream of one server after
		// another), so its place on the daemon's timeline is the sum of
		// their spans.
		nf := refFile{}
		if ref.rotate > 0 {
			nf.base = r.T.Truncate(time.Second)
		}
		for _, f := range ref.files {
			nf.offset += f.maxT
		}
		ref.files = append(ref.files, nf)
		ref.inFile, ref.cutNow = 0, false
	}
	ref.inFile++
	f := &ref.files[len(ref.files)-1]
	t := r.T - f.base
	if t > f.maxT {
		f.maxT = t
	}
	if r.Dir == trace.In {
		f.in++
		f.appIn += int64(r.App)
	} else {
		f.out++
		f.appOut += int64(r.App)
	}
	s := int(t / time.Second)
	for len(f.perSecond) <= s {
		f.perSecond = append(f.perSecond, 0)
	}
	f.perSecond[s]++
	wi := int((f.offset + t) / ref.window)
	for len(ref.windows) <= wi {
		ref.windows = append(ref.windows, false)
	}
	ref.windows[wi] = true
}

// records is the capture's total record count.
func (ref *reference) records() int64 {
	var n int64
	for _, f := range ref.files {
		n += f.in + f.out
	}
	return n
}

// totals sums the per-file counts.
func (ref *reference) totals() refFile {
	var t refFile
	for _, f := range ref.files {
		t.in += f.in
		t.out += f.out
		t.appIn += f.appIn
		t.appOut += f.appOut
	}
	return t
}

// between counts file-relative records with from ≤ T < to, on whole
// seconds.
func (f *refFile) between(from, to time.Duration) int64 {
	var n int64
	for s := int(from / time.Second); s < int(to/time.Second) && s < len(f.perSecond); s++ {
		n += f.perSecond[s]
	}
	return n
}

// wireIn and wireOut are Table II's byte totals: payload plus the paper's
// per-packet framing overhead.
func (f *refFile) wireIn() int64  { return f.appIn + f.in*units.WireOverhead }
func (f *refFile) wireOut() int64 { return f.appOut + f.out*units.WireOverhead }

// windowRows is how many non-empty windows the daemon must record over the
// whole spool.
func (ref *reference) windowRows() int {
	n := 0
	for _, w := range ref.windows {
		if w {
			n++
		}
	}
	return n
}
