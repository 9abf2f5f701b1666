package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Start and End are nanoseconds since the
// tracer's epoch; Parent indexes the span that caused it (-1 for an
// op's root span); Op identifies the round or job it belongs to; Work
// is a count the call reports (rounds of a sweep cell, bytes fetched).
type span struct {
	Name       string
	Op         int64
	Parent     int32
	Start, End int64
	Work       int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans into a buffer preallocated at construction, so
// recording allocates nothing. Begin and end may be called from several
// goroutines: each span owns the slot begin reserved. Spans past the
// buffer's capacity are counted as dropped, not recorded.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its slot, or -1 when the buffer is
// full or t is nil, the untraced case (end ignores -1).
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.epoch))}
	return int32(i)
}

// end closes the span in slot i, recording the call's work count.
func (t *tracer) end(i int32, work int64) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.spans[i].Work = work
}

// recorded returns the spans recorded so far. Call it only once every
// span has ended.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed like spans. Overlapping children
// (cells running on two workers at once) are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int32) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for j, v := range iv {
		switch {
		case j == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		default:
			curHi = max(curHi, v[1])
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// durationsMs collects the durations, in milliseconds, of the spans
// with the given name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans dumps the spans as tab-separated lines: index, name, op,
// parent, start and end in nanoseconds, work.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tname\top\tparent\tstart_ns\tend_ns\twork")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.Name, s.Op, s.Parent, s.Start, s.End, s.Work)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
