package svc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
)

// journalName is the crash-recovery journal under CacheDir: one JSON
// record per line, append-only (the cache's JSONL idiom — an append
// either lands whole or tears at the tail, and a torn tail is
// skipped, never fatal).
const journalName = "journal.jsonl"

// journalRecord is one job-lifecycle transition. accepted carries the
// spec (it is the record a restart resubmits from); started and
// terminal only reference the ID.
type journalRecord struct {
	Op    string   `json:"op"` // "accepted", "started", "terminal"
	ID    string   `json:"id"`
	State string   `json:"state,omitempty"` // terminal records: done/failed/canceled
	Spec  *JobSpec `json:"spec,omitempty"`  // accepted records
}

// journal is the service's append-only job journal. Every accepted
// job writes an accepted record, transitions append started/terminal
// records, and a daemon that dies mid-job leaves an accepted record
// with no terminal — exactly the set openJournal re-submits on the
// next start. Writes are best-effort: a full disk degrades crash
// recovery, not job execution. A nil *journal (no CacheDir) no-ops
// everywhere.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// resumedJob is one journal entry a restarted daemon must re-run,
// under its original ID — clients polling that ID across the restart
// keep getting answers.
type resumedJob struct {
	ID   string
	Spec JobSpec
}

// openJournal replays the journal under dir, compacts it down to the
// still-pending jobs (their accepted records are re-written; finished
// jobs' history is dropped), and returns the append handle plus the
// pending jobs in acceptance order. dir == "" disables journaling.
func openJournal(dir string) (*journal, []resumedJob, error) {
	if dir == "" {
		return nil, nil, nil
	}
	path := filepath.Join(dir, journalName)
	pending, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// Compact: rewrite just the pending accepted records, atomically,
	// then append from there. A crash between rename and first append
	// loses nothing — the pending set is already durable.
	var buf bytes.Buffer
	for _, r := range pending {
		spec := r.Spec
		rec, err := json.Marshal(journalRecord{Op: "accepted", ID: r.ID, Spec: &spec})
		if err != nil {
			return nil, nil, err
		}
		buf.Write(rec)
		buf.WriteByte('\n')
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &journal{f: f}, pending, nil
}

// replayJournal reads the journal and returns the jobs accepted but
// never terminal, in acceptance order. A missing file is an empty
// journal; a torn or corrupt line ends the replay at the last good
// record (the crash the journal exists to survive can tear its tail).
func replayJournal(path string) ([]resumedJob, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var order []string
	specs := make(map[string]*JobSpec)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail: everything before it is intact
		}
		switch rec.Op {
		case "accepted":
			if rec.Spec != nil && specs[rec.ID] == nil {
				specs[rec.ID] = rec.Spec
				order = append(order, rec.ID)
			}
		case "terminal":
			delete(specs, rec.ID)
		}
	}
	var pending []resumedJob
	for _, id := range order {
		if spec := specs[id]; spec != nil {
			pending = append(pending, resumedJob{ID: id, Spec: *spec})
			// An ID accepted again after its terminal record sits in
			// order twice; it resumes once.
			delete(specs, id)
		}
	}
	return pending, nil
}

// append writes one record. Best-effort (see journal doc).
func (jl *journal) append(rec journalRecord) {
	if jl == nil {
		return
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return
	}
	jl.f.Write(append(raw, '\n'))
}

// accepted records a job entering the queue (spec included: this is
// the record a restart resubmits from).
func (jl *journal) accepted(id string, spec JobSpec) {
	jl.append(journalRecord{Op: "accepted", ID: id, Spec: &spec})
}

// started records a job taking a grid slot.
func (jl *journal) started(id string) {
	jl.append(journalRecord{Op: "started", ID: id})
}

// terminal records a job finishing in state (done/failed/canceled);
// the job will not be resumed.
func (jl *journal) terminal(id, state string) {
	jl.append(journalRecord{Op: "terminal", ID: id, State: state})
}

// Close releases the journal file. Idempotent; nil-safe.
func (jl *journal) Close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
}
