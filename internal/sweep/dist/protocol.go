// Package dist distributes sweep execution across machines: a
// PoolExecutor (the sweep.Executor a coordinating process plugs into
// sweep.Options) farms cells to Worker processes over a length-prefixed
// JSON wire protocol, and commits their results straight into the
// result cache by cell digest. It leases worker links from a Source:
// Dial over a fixed address list, or the control plane's registry of
// workers that dial in.
//
// The design leans on two invariants the rest of the stack already
// guarantees. First, cell outcomes are pure functions of (cell, seed,
// horizon) — per-cell seeds derive from the grid seed and the cell's
// identity, never from placement — so executing a cell on another
// machine cannot change a single output byte. Second, the cache's
// CellDigest is an injective content address of (grid seed, cell), so
// remote results have a natural dedup/commit key: delivery is
// at-least-once (a lost worker's claimed cells are re-queued), and both
// the engine's emit path and the cache's duplicate-digest resolution
// make redundant deliveries harmless.
//
// Wire protocol, per coordinator↔worker connection (the worker speaks
// first whichever side dialed, so a coordinator dialing a listening
// worker and a register-mode worker dialing a control-plane daemon
// share one handshake):
//
//	worker → coordinator   hello{version, capacity, name}  (once, on connect)
//	coordinator → worker   job{id, cell, seed, rounds, traced, digest, lease}
//	worker → coordinator   result{id, digest, lease, outcome, err, wall_seconds}
//	coordinator → worker   ping                            (liveness probe)
//	worker → coordinator   pong
//
// The coordinator pipelines up to the advertised capacity of jobs per
// worker; the worker executes them on a local pool and streams results
// back in completion order. Framing is a 4-byte big-endian length
// prefix followed by a JSON body, so payloads round-trip float64
// exactly the way the exporters and the cache already rely on.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"autofl/internal/sweep"
)

// ProtocolVersion gates the wire format. A coordinator refuses a
// worker that advertises a different version rather than misreading
// its frames. Version 2 added the ping/pong heartbeat frames — a v1
// worker would treat a ping as a protocol violation and drop the
// connection, so the handshake refuses the mix outright.
const ProtocolVersion = 2

// maxFrame bounds a single frame's body. Job and result payloads are
// small (a traced 1000-round outcome is ~100 KB of JSON); the bound
// exists so a corrupt or hostile length prefix cannot trigger an
// absurd allocation.
const maxFrame = 64 << 20

// Frame kinds, discriminating the message envelope by its Kind field.
const (
	kindHello  = "hello"
	kindJob    = "job"
	kindResult = "result"
	kindPing   = "ping"
	kindPong   = "pong"
)

// Hello is the worker's banner, sent once per connection before any
// jobs flow.
type Hello struct {
	// Version must equal ProtocolVersion.
	Version int `json:"version"`
	// Capacity is the number of jobs the worker executes concurrently;
	// the coordinator keeps at most this many in flight on the
	// connection.
	Capacity int `json:"capacity"`
	// Name is the worker's optional self-advertised label, shown in
	// the control plane's worker registry instead of the (ephemeral)
	// remote address of a dialed-in registration.
	Name string `json:"name,omitempty"`
}

// Job is one cell execution request. It is self-contained — cell,
// derived seed, round horizon, and trace flag — so workers are
// stateless between jobs and one worker can serve sweeps at different
// horizons back to back.
type Job struct {
	// ID echoes sweep.Task.Index: the coordinator's result key.
	ID   int        `json:"id"`
	Cell sweep.Cell `json:"cell"`
	Seed uint64     `json:"seed"`
	// Rounds is the horizon bound for the run (already normalized by
	// the coordinator; never 0).
	Rounds int `json:"rounds"`
	// Traced requests a per-round sweep.RunTrace payload on the
	// outcome, for the coordinator's cache commit.
	Traced bool `json:"traced"`
	// Digest is the cell's cache content address under the sweep's
	// grid seed, carried for auditability (logs on either end can key
	// by it); the coordinator never trusts the echo, it recomputes
	// commits from its own signature.
	Digest string `json:"digest,omitempty"`
	// Lease tags the job with the coordinator lease that sent it; the
	// worker echoes it on the result. Job IDs are per-sweep task
	// indexes, so on a long-lived connection serving one sweep after
	// another the lease tag is what keeps a straggler result of a
	// canceled sweep from being mistaken for the current sweep's cell
	// of the same index.
	Lease uint64 `json:"lease,omitempty"`
}

// JobResult is one completed cell, streamed back in completion order.
type JobResult struct {
	ID     int    `json:"id"`
	Digest string `json:"digest,omitempty"`
	// Lease echoes the job's lease tag (see Job.Lease).
	Lease uint64 `json:"lease,omitempty"`
	// Outcome carries the trace payload when the job requested one.
	Outcome sweep.Outcome `json:"outcome"`
	// Err is the cell's error (or recovered panic), exactly as
	// sweep.ExecuteTask isolates it locally.
	Err string `json:"err,omitempty"`
	// WallSeconds is the worker-measured execution time, the
	// scheduler-calibration signal the cache records.
	WallSeconds float64 `json:"wall_seconds"`
}

// message is the single wire envelope: one flat struct, Kind
// discriminates.
type message struct {
	Kind   string     `json:"kind"`
	Hello  *Hello     `json:"hello,omitempty"`
	Job    *Job       `json:"job,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// writeMessage frames and writes one message: 4-byte big-endian body
// length, then the JSON body, as a single Write so concurrent writers
// need only serialize the call, not the bytes.
func writeMessage(w io.Writer, m message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: marshal %s: %w", m.Kind, err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("dist: %s frame of %d bytes exceeds the %d-byte bound", m.Kind, len(body), maxFrame)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dist: write %s: %w", m.Kind, err)
	}
	return nil
}

// ParseWorkerList resolves a worker-address flag value: either a
// comma-separated list of addresses, or "@path" naming a file with
// one address per line ('#' starts a comment; blank lines are
// ignored). Both cmd/autofl-sweep's -workers coordinator flag and
// cmd/autofl-sweepd's static-fleet bootstrap share it, so one fleet
// file drives either entry point.
func ParseWorkerList(arg string) ([]string, error) {
	var fields []string
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("dist: workers file: %w", err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			fields = append(fields, line)
		}
	} else {
		fields = strings.Split(arg, ",")
	}
	var out []string
	for _, f := range fields {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out, nil
}

// frameAllocChunk bounds the body buffer's up-front allocation. The
// advertised length is untrusted until the bytes actually arrive: a
// corrupt or hostile prefix claiming the full 64 MB bound on a
// short-lived connection must not commit a 64 MB allocation before a
// single body byte is read, so the buffer starts at one chunk and
// grows only as data flows.
const frameAllocChunk = 1 << 20

// readMessage reads one length-prefixed frame and decodes it.
func readMessage(r io.Reader) (message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return message{}, fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	var buf bytes.Buffer
	buf.Grow(int(min(n, frameAllocChunk)))
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // ReadFull's contract for a truncated body
		}
		return message{}, fmt.Errorf("dist: short frame: %w", err)
	}
	var m message
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		return message{}, fmt.Errorf("dist: decode frame: %w", err)
	}
	return m, nil
}
