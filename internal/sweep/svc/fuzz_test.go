package svc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// FuzzHTTP sends arbitrary methods, paths and query strings to one
// service's handler, which holds a finished job and a canceled one.
// Every reply carries a status the Handler doc lists, never 500, and
// every error reply's body is the {"error": ...} envelope. POST bodies
// are FuzzJobSpec's ground; here every request has an empty body.
func FuzzHTTP(f *testing.F) {
	s, err := New(Config{Runners: fakeRunners})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	done, err := s.Submit(JobSpec{Grid: testGrid(3), Rounds: 10})
	if err != nil {
		f.Fatal(err)
	}
	canceled, err := s.Submit(JobSpec{Grid: testGrid(4), Rounds: 10})
	if err != nil {
		f.Fatal(err)
	}
	s.Cancel(canceled.ID)
	for _, id := range []string{done.ID, canceled.ID} {
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			st, err := s.Status(id)
			if err != nil {
				f.Fatal(err)
			}
			if st.State != StateQueued && st.State != StateRunning {
				break
			}
			if time.Now().After(deadline) {
				f.Fatalf("job %s still %s", id, st.State)
			}
		}
	}
	h := s.Handler()
	documented := map[int]bool{200: true, 202: true, 301: true, 400: true, 404: true, 405: true, 409: true, 429: true, 503: true}

	for _, method := range []string{"GET", "POST", "DELETE", "PUT", "HEAD", "OPTIONS", "CONNECT"} {
		for _, path := range []string{"/v1/sweeps", "/v1/sweeps/" + done.ID, "/v1/sweeps/" + canceled.ID + "/result",
			"/v1/workers", "/v1/healthz", "/v1/metrics", "/", "/v1//sweeps/../x"} {
			f.Add(method, path, "")
		}
	}
	f.Add("GET", "/v1/sweeps/"+done.ID+"/result", "format=csv")
	f.Add("GET", "/v1/sweeps/"+done.ID+"/result", "format=xml&format=json")
	f.Add("GET", "/v1/sweeps/job-999999/result", "%zz")

	f.Fuzz(func(t *testing.T, method, path, query string) {
		u := url.URL{Scheme: "http", Host: "svc", Path: path, RawQuery: query}
		req, err := http.NewRequest(method, u.String(), nil)
		if err != nil {
			return // not a request a client can send
		}
		req.Body = http.NoBody // as a server hands its handlers
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !documented[rec.Code] {
			t.Fatalf("%s %q ?%q: status %d is not documented", method, path, query, rec.Code)
		}
		if rec.Code < 400 {
			return
		}
		var env map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %q ?%q: %d body %q is not JSON: %v", method, path, query, rec.Code, rec.Body, err)
		}
		if msg, ok := env["error"].(string); !ok || msg == "" || len(env) != 1 {
			t.Fatalf("%s %q ?%q: %d body %q is not the error envelope", method, path, query, rec.Code, rec.Body)
		}
	})
}
