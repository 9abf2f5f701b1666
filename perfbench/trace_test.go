package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		// Two overlapping children count once: [10, 50).
		{Name: "cell", Parent: 0, Start: 10, End: 30},
		{Name: "cell", Parent: 0, Start: 20, End: 50},
		// A child running past its parent counts only inside it: [90, 100).
		{Name: "fetch", Parent: 0, Start: 90, End: 120},
		// A grandchild is its parent's child, not the root's.
		{Name: "inner", Parent: 1, Start: 12, End: 18},
		{Name: "other", Parent: -1, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := []int64{50, 14, 30, 30, 6, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeAddsUpForSequentialChildren(t *testing.T) {
	// The engine's round: select, then the engine's own work, then
	// feedback. select + feedback + self must equal the step.
	spans := []span{
		{Name: "step", Parent: -1, Start: 1000, End: 2000},
		{Name: "policy.select", Parent: 0, Start: 1100, End: 1300},
		{Name: "policy.feedback", Parent: 0, Start: 1900, End: 1950},
	}
	self := selfTimes(spans)
	if sum := self[0] + spans[1].dur() + spans[2].dur(); sum != spans[0].dur() {
		t.Fatalf("select + feedback + self = %d, step = %d", sum, spans[0].dur())
	}
}

func TestTracerRecordsUntilFullAndIgnoresNil(t *testing.T) {
	var none *tracer
	if i := none.begin("x", 0, -1); i != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", i)
	}
	none.end(-1, 0)

	tr := newTracer(2)
	a := tr.begin("a", 1, -1)
	b := tr.begin("b", 1, a)
	c := tr.begin("c", 1, a)
	tr.end(b, 7)
	tr.end(c, 0)
	tr.end(a, 0)
	if a != 0 || b != 1 || c != -1 || tr.dropped.Load() != 1 {
		t.Fatalf("slots %d %d %d, dropped %d; want 0 1 -1, 1", a, b, c, tr.dropped.Load())
	}
	rec := tr.recorded()
	if len(rec) != 2 || rec[1].Parent != 0 || rec[1].Work != 7 || rec[0].End < rec[1].End {
		t.Fatalf("recorded %+v", rec)
	}
	if got := durationsMs(rec, "b"); len(got) != 1 || got[0] < 0 {
		t.Fatalf("durationsMs = %v", got)
	}

	path := filepath.Join(t.TempDir(), "spans.tsv")
	if err := writeSpans(path, rec); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(raw)), "\n"); len(lines) != 3 || !strings.HasPrefix(lines[2], "1\tb\t1\t0\t") {
		t.Fatalf("span dump:\n%s", raw)
	}
}
