package svc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzJobSpec decodes bytes the way handleSubmit does and runs the
// submission check. An accepted grid expands to between 1 and
// maxJobCells cells; a small one expands to exactly Size cells with
// distinct identities, so no two cells share a seed or cache digest.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"grid":{"seed":1}}`))
	f.Add([]byte(`{"grid":{"workloads":["CNN-MNIST"],"policies":["AutoFL","Battery-Weighted"],"batteries":["none"],"replicates":3,"seed":7},"rounds":90}`))
	f.Add([]byte(`{"grid":{"modes":["sync","async"],"alphas":["0.5"],"devices":["1000"],"samples":["64"]},"rounds":1000,"name":"x"}`))
	f.Add([]byte(`{"grid":{"replicates":1099511627776}}`))
	f.Add([]byte(`{"grid":{},"rounds":1099511627776}`))
	f.Add([]byte(`{"grid":{"replicates":-5,"policies":["a","a"]}}`))
	f.Add([]byte(`{"grid":{"selections":["random"]}}`))
	f.Add([]byte(`{"grid":{"workloads":["a/b","a"],"settings":["c","b/c"]}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := decodeSpec(bytes.NewReader(raw))
		if err != nil || validateSpec(spec) != nil {
			return
		}
		n := spec.Grid.Size()
		if n < 1 || n > maxJobCells {
			t.Fatalf("accepted grid of %d cells", n)
		}
		if n > 4096 {
			return
		}
		cells := spec.Grid.Cells()
		if len(cells) != n {
			t.Fatalf("Cells() = %d cells, Size() = %d", len(cells), n)
		}
		seen := make(map[string]bool, n)
		for _, c := range cells {
			var id strings.Builder
			c.WriteIdentity(&id)
			if seen[id.String()] {
				t.Fatalf("cell identity %q repeats", id.String())
			}
			seen[id.String()] = true
		}
	})
}

// FuzzReplayJournal feeds arbitrary bytes to journal replay. Content
// never fails a replay (torn, duplicated and foreign lines end it or
// are skipped), pending IDs are unique, and compacting then replaying
// gives the same pending list.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(`{"op":"accepted","id":"job-000001","spec":{"grid":{"seed":1}}}` + "\n"))
	f.Add([]byte(`{"op":"accepted","id":"a","spec":{"grid":{}}}` + "\n" +
		`{"op":"started","id":"a"}` + "\n" + `{"op":"terminal","id":"a","state":"done"}` + "\n" +
		`{"op":"accepted","id":"a","spec":{"grid":{"seed":2}}}` + "\n"))
	f.Add([]byte(`{"op":"accepted","id":"b","spec":{"grid":{"workloads":[]}}}` + "\n" +
		`{"op":"accepted","id":"b","spec":{"name":"dup"}}` + "\n" + `{"op":"accep`))
	f.Add([]byte(`{"op":"accepted","id":"c"}` + "\n\n" + `not json` + "\n" + `{"op":"accepted","id":"d","spec":{}}`))
	f.Add([]byte("\x00\xff\n" + strings.Repeat("x", 1<<12)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		ids := make(map[string]bool, len(first))
		for _, r := range first {
			if ids[r.ID] {
				t.Fatalf("pending ID %q listed twice", r.ID)
			}
			ids[r.ID] = true
		}
		jl, compacted, err := openJournal(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		jl.Close()
		again, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay after compaction: %v", err)
		}
		// Compared as JSON: a decoded empty list and an absent one are
		// the same spec.
		want, _ := json.Marshal(first)
		for _, got := range [][]resumedJob{compacted, again} {
			if g, _ := json.Marshal(got); !bytes.Equal(g, want) {
				t.Fatalf("pending after compaction = %s, want %s", g, want)
			}
		}
	})
}
