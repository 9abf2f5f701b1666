// Package cache is the persistent result store of the sweep engine: a
// content-addressed, on-disk cache that lets an interrupted or extended
// grid resume without re-running finished cells, and serves
// shorter-horizon requests from longer cached runs.
//
// Every completed cell is keyed by an injective digest of the grid
// master seed and the cell's identity (axis values plus replicate
// index), so a cache populated by one grid serves any later grid that
// shares those — a rerun of a finished grid executes nothing, and
// extending an axis by one value executes only the new cells. The
// round horizon is deliberately NOT part of the digest: each entry
// records its run's per-round trace payload (sweep.RunTrace), which
// witnesses the horizon it ran under, and a request at a different
// horizon is
// answered by replaying the trace's prefix — a cell cached at 1000
// rounds serves a 200-round request byte-identically to a cold
// 200-round run, because per-cell seeds and every round's draws are
// independent of the horizon. A longer request than any cached run
// can witness is simply a miss and re-executes.
//
// Changing the grid seed or any axis value of a cell changes its
// digest, which is the cache's invalidation rule: stale entries are
// simply never looked up, and a manifest mismatch on open truncates
// the store outright.
//
// The on-disk format is a manifest (format version + grid seed) plus
// append-only JSONL, one entry per completed cell. Appends are single
// O_APPEND writes, so concurrent Cache handles on one directory
// interleave whole lines; a torn final line from a crash is skipped on
// the next load, and GC compacts superseded duplicates. Because
// encoding/json round-trips float64 exactly, a Result served from the
// cache is byte-identical in exported JSON/CSV to the fresh run that
// produced it.
//
// Entries also record the cell's measured wall-clock, which
// internal/sweep/schedule consumes to calibrate its cost model.
package cache

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"autofl/internal/sweep"
)

// formatVersion gates the on-disk layout; bump it to orphan old
// caches. v2 removed the horizon from the digest identity and added
// per-entry horizons and trace payloads. v3 orphans the outcomes of
// the retired materialized-fleet engine: the default 200-device fleet
// now runs on the population engine's keyed draws. v4 orphans the
// sampled-population outcomes (Sample < N) drawn by the retired
// shuffle-and-sort candidate sampler.
const formatVersion = 4

const (
	manifestName = "manifest.json"
	resultsName  = "results.jsonl"
)

// Signature identifies one sweep request against the cache: the grid
// master seed every cell digest derives from, plus the round horizon
// the caller wants results at. Only the seed is part of entry
// identity; the horizon selects how entries are *served* — exactly,
// or by trace-prefix replay. Callers should normalize Rounds to the
// effective horizon (the root package maps 0 to the paper's 1000) so
// "default" and "explicit 1000" behave identically.
type Signature struct {
	GridSeed uint64 `json:"grid_seed"`
	Rounds   int    `json:"rounds"`
}

// CellDigest is the injective content address of one cell under the
// grid seed: SHA-256 over the seed header plus the cell's
// WriteIdentity encoding (the same bytes Grid.CellSeed hashes), so no
// two distinct (seed, cell) pairs collide whatever their axis values
// contain. The horizon is intentionally absent — one entry per cell
// serves every horizon its recorded run can witness.
func (s Signature) CellDigest(c sweep.Cell) string {
	h := sha256.New()
	fmt.Fprintf(h, "autofl-sweep-cache/v%d\n%d\n", formatVersion, s.GridSeed)
	c.WriteIdentity(h)
	return hex.EncodeToString(h.Sum(nil))
}

// manifest is the on-disk header pinning a cache directory to one
// format version and grid seed.
type manifest struct {
	Version  int    `json:"version"`
	GridSeed uint64 `json:"grid_seed"`
}

// Entry is one cached cell: its digest, the horizon it ran under, the
// result it produced, the wall-clock the execution took (the
// scheduler's calibration signal), and the per-round trace that lets
// the entry serve shorter horizons. Every entry carries a valid trace:
// Put refuses a result without one, and load skips such lines.
type Entry struct {
	Digest string `json:"digest"`
	// Rounds is the horizon the entry answers exactly: the trace
	// length — the rounds the run actually executed, first-hand
	// evidence that stays honest even if a caller opens the cache at
	// one horizon and bounds the runner at another. (A converged run's
	// trace ends at its convergence round; serveAt's convergence rule
	// covers every longer horizon.)
	Rounds      int             `json:"rounds"`
	Result      sweep.Result    `json:"result"`
	WallSeconds float64         `json:"wall_seconds"`
	Trace       *sweep.RunTrace `json:"trace,omitempty"`
}

// serveAt returns the entry's outcome under a horizon of h rounds, if
// the recorded run can witness it: exactly (same horizon), as-is (the
// run converged within h rounds, so a longer horizon changes
// nothing), or by replaying the trace prefix. replayed reports
// whether the last path — an actual truncation of a longer run — was
// taken.
func (e *Entry) serveAt(h int) (out sweep.Outcome, replayed, ok bool) {
	out = e.Result.Outcome
	if e.Rounds == h {
		return out, false, true
	}
	if out.Converged && out.Rounds <= h {
		return out, false, true
	}
	if h < e.Rounds {
		if o, ok := e.Trace.OutcomeAt(h); ok {
			return o, true, true
		}
	}
	return sweep.Outcome{}, false, false
}

// dominates reports whether entry a can serve every horizon entry b
// can (see serveAt). A converged entry serves every horizon (replay
// below the convergence round, the converged rule at or above it); an
// unconverged one serves every horizon up to its witnessed rounds.
func dominates(a, b Entry) bool {
	if a.Result.Outcome.Converged {
		return true
	}
	return !b.Result.Outcome.Converged && b.Rounds <= a.Rounds
}

// prefer resolves two entries sharing a digest: the new entry wins
// when it serves every horizon the old one can. Every pair is
// comparable — of two unconverged entries one witnesses at least the
// other's rounds, and a converged entry dominates everything — so the
// old entry otherwise serves a strictly wider range. A deterministic
// runner never produces genuinely conflicting duplicates; this just
// picks the dominant entry among redundant ones.
func prefer(old, new Entry) Entry {
	if dominates(new, old) {
		return new
	}
	return old
}

// Stats counts how a sweep interacted with the cache.
type Stats struct {
	// Hits is the number of cells served from the cache; Misses the
	// number executed (and, when successful, recorded).
	Hits, Misses int
	// PrefixHits counts the subset of Hits answered by replaying a
	// longer cached run's trace prefix (a genuinely shorter-horizon
	// request; converged entries served as-is at any horizon do not
	// count).
	PrefixHits int
}

// Cache is a persistent cell-result store bound to one directory and
// signature. It is safe for concurrent use by the engine's worker
// pool, and multiple Cache handles (even in different processes) may
// share a directory: appends are whole-line atomic, and a handle that
// misses a cell another handle wrote merely re-executes it — with
// identical output, by the engine's determinism guarantee.
type Cache struct {
	dir string
	sig Signature

	mu       sync.Mutex
	entries  map[string]Entry
	f        *os.File
	stats    Stats
	loadSkip int // disk lines not represented in entries (GC's debt)
	writeErr error
}

// Open binds a cache directory to the signature, creating it if
// needed. An existing directory whose manifest matches the format
// version and grid seed keeps its entries — the signature's horizon
// never invalidates, it only selects how entries are served. A
// version or seed mismatch invalidates the store (the manifest is
// rewritten and all entries dropped). Torn or corrupt JSONL lines —
// e.g. from a crash mid-append — and entries whose digest does not
// recompute from their recorded cell are skipped, not fatal.
func Open(dir string, sig Signature) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := &Cache{dir: dir, sig: sig, entries: make(map[string]Entry)}

	keep := false
	if raw, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		var m manifest
		if json.Unmarshal(raw, &m) == nil && m.Version == formatVersion && m.GridSeed == sig.GridSeed {
			keep = true
		}
	}
	if keep {
		if err := c.load(); err != nil {
			return nil, err
		}
	} else if err := c.reset(); err != nil {
		return nil, err
	}

	f, err := os.OpenFile(filepath.Join(dir, resultsName), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c.f = f
	return c, nil
}

// load reads the JSONL store into memory, skipping unreadable lines
// and digest mismatches. Duplicates of a digest resolve by prefer, so
// a superseding long-horizon entry wins over the runs it subsumes.
func (c *Cache) load() error {
	f, err := os.Open(filepath.Join(c.dir, resultsName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("cache: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lines := 0
	for sc.Scan() {
		lines++
		var e Entry
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue // torn or corrupt line
		}
		if e.Digest != c.sig.CellDigest(e.Result.Cell) {
			continue // foreign signature or tampered entry
		}
		if !e.Trace.Valid() {
			continue // no trace, or an unknown payload version
		}
		e.Rounds = e.Trace.Rounds() // the trace witnesses the horizon
		if old, ok := c.entries[e.Digest]; ok {
			e = prefer(old, e)
		}
		c.entries[e.Digest] = e
	}
	c.loadSkip = lines - len(c.entries)
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// A newline-free garbage run (e.g. disk corruption) past the
			// line budget: keep what loaded — the missing cells simply
			// re-execute — rather than bricking the cache.
			return nil
		}
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// reset writes a fresh manifest for the signature (atomically, via
// temp file + rename) and truncates the entry store.
func (c *Cache) reset() error {
	raw, err := json.Marshal(manifest{Version: formatVersion, GridSeed: c.sig.GridSeed})
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, manifestName+".tmp*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, manifestName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.WriteFile(filepath.Join(c.dir, resultsName), nil, 0o644); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Invalidate drops every entry, on disk and in memory. The handle
// stays usable; cmd/autofl-sweep uses it for -resume=false, which
// re-executes the whole grid while refreshing the cache.
func (c *Cache) Invalidate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]Entry)
	c.loadSkip = 0
	if c.f != nil {
		if err := c.f.Truncate(0); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
	}
	return nil
}

// Signature returns the signature the cache was opened with.
func (c *Cache) Signature() Signature { return c.sig }

// Len reports the number of cached cells.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Has reports whether the cache can serve the cell at the signature's
// horizon (exactly or via trace-prefix replay). It does not count
// toward Stats — only Runner lookups do.
func (c *Cache) Has(cell sweep.Cell) bool {
	d := c.sig.CellDigest(cell)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[d]
	if !ok {
		return false
	}
	_, _, ok = e.serveAt(c.sig.Rounds)
	return ok
}

// Put records a completed cell and its measured wall-clock, appending
// one JSONL line. The Outcome.Trace payload is split off into the
// entry's trace (it never reaches the stored scalar result), and its
// length is the entry's horizon — the run's own evidence, which a
// caller cannot contradict by opening the cache at another horizon
// than the runner's round bound. A result without a valid trace is
// refused, and the error is kept for Close like a failed append.
// Errored results are not cached — a failed cell is re-executed on
// resume so transient faults don't stick. A duplicate digest keeps
// whichever entry serves the wider horizon range (prefer).
func (c *Cache) Put(r sweep.Result, wallSeconds float64) error {
	if r.Err != "" {
		return nil
	}
	if !r.Outcome.Trace.Valid() {
		return c.fail(fmt.Errorf("cache: refusing %s: no valid trace", r.Cell.Key()))
	}
	e := Entry{
		Digest:      c.sig.CellDigest(r.Cell),
		Rounds:      r.Outcome.Trace.Rounds(),
		Result:      r,
		WallSeconds: wallSeconds,
		Trace:       r.Outcome.Trace,
	}
	e.Result.Outcome.Trace = nil
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	// One write call under O_APPEND keeps concurrent handles whole-line
	// atomic on POSIX filesystems.
	if _, err := c.f.Write(line); err != nil {
		return c.failLocked(fmt.Errorf("cache: %w", err))
	}
	if old, ok := c.entries[e.Digest]; ok {
		e = prefer(old, e)
		c.loadSkip++ // one of the duplicate lines is now superseded
	}
	c.entries[e.Digest] = e
	return nil
}

// fail records a refused or failed Put for Close to report.
func (c *Cache) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failLocked(err)
}

// failLocked is fail for callers holding c.mu. The first error wins.
func (c *Cache) failLocked(err error) error {
	if c.writeErr == nil {
		c.writeErr = err
	}
	return err
}

// Serve answers one cell lookup at the signature horizon — exactly,
// as-is for a run converged within the request, or by trace-prefix
// replay — updating Stats like a Runner lookup (a hit counts toward
// Hits/PrefixHits, a miss toward Misses). It is the coordinator-side
// half of the distributed execution path: internal/sweep/dist serves
// hits locally through it before shipping the missing cells to
// workers, and commits their results back with Put, so a shared cache
// dedups cells across machines by digest exactly as it does across
// goroutines.
func (c *Cache) Serve(cell sweep.Cell, seed uint64) (sweep.Outcome, bool) {
	d := c.sig.CellDigest(cell)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[d]; ok && e.Result.Seed == seed {
		if out, replayed, ok := e.serveAt(c.sig.Rounds); ok {
			c.stats.Hits++
			if replayed {
				c.stats.PrefixHits++
			}
			return out, true
		}
	}
	c.stats.Misses++
	return sweep.Outcome{}, false
}

// Runner wraps a sweep.Runner with the cache: hits — including
// requests a longer-horizon entry can answer by trace-prefix replay —
// are served without executing; misses execute and record the result
// with its wall-clock and the trace payload the runner must attach
// (see Put). Outcomes returned downstream never carry traces, so sweep
// output is identical with or without caching. The wrapped runner
// inherits the inner runner's concurrency safety. A failed or refused
// Put does not fail the cell (the computed outcome is still correct);
// the first such error is surfaced by Close.
func (c *Cache) Runner(run sweep.Runner) sweep.Runner {
	return func(ctx context.Context, cell sweep.Cell, seed uint64) (sweep.Outcome, error) {
		if out, ok := c.Serve(cell, seed); ok {
			return out, nil
		}
		start := time.Now()
		out, err := run(ctx, cell, seed)
		if err != nil {
			return out, err
		}
		_ = c.Put(sweep.Result{Cell: cell, Seed: seed, Outcome: out}, time.Since(start).Seconds())
		out.Trace = nil
		return out, nil
	}
}

// Stats returns the hit/miss counts accumulated by Runner lookups.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Entries returns the cached entries sorted by cell key, a
// deterministic view for calibration and inspection.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return out[i].Result.Cell.Key() < out[j].Result.Cell.Key()
	})
	return out
}

// GC compacts the JSONL store down to the live entry set: superseded
// duplicate digests, torn or corrupt lines, and entries whose digest
// no longer matches the manifest's grid seed are dropped; the
// surviving entries are rewritten sorted by cell key (atomically, via
// temp file + rename) and the append handle reopened on the compact
// file. It returns the surviving entry count and the number of disk
// lines dropped. GC is a maintenance operation for a quiescent
// directory: concurrent handles appending to the old file lose those
// appends (their cells simply re-execute later).
func (c *Cache) GC() (kept, dropped int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	entries := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Result.Cell.Key() < entries[j].Result.Cell.Key()
	})

	tmp, err := os.CreateTemp(c.dir, resultsName+".tmp*")
	if err != nil {
		return 0, 0, fmt.Errorf("cache: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, e := range entries {
		line, merr := json.Marshal(e)
		if merr != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return 0, 0, fmt.Errorf("cache: %w", merr)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, 0, fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, 0, fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, resultsName)); err != nil {
		os.Remove(tmp.Name())
		return 0, 0, fmt.Errorf("cache: %w", err)
	}
	// Reopen the append handle on the compacted file; the old handle
	// points at the unlinked inode.
	if c.f != nil {
		c.f.Close()
	}
	f, err := os.OpenFile(filepath.Join(c.dir, resultsName), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		c.f = nil
		return 0, 0, fmt.Errorf("cache: %w", err)
	}
	c.f = f
	dropped = c.loadSkip
	c.loadSkip = 0
	return len(entries), dropped, nil
}

// GCDir compacts an existing cache directory in place, keyed by the
// grid seed its own manifest records — unlike Open, it never resets
// the store, so it is safe to run without knowing the seed the cache
// was built with. It fails if the directory holds no manifest of the
// current format version.
func GCDir(dir string) (kept, dropped int, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, 0, fmt.Errorf("cache: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, 0, fmt.Errorf("cache: bad manifest: %w", err)
	}
	if m.Version != formatVersion {
		return 0, 0, fmt.Errorf("cache: manifest version %d, want %d (re-populate the cache)", m.Version, formatVersion)
	}
	c, err := Open(dir, Signature{GridSeed: m.GridSeed})
	if err != nil {
		return 0, 0, err
	}
	kept, dropped, err = c.GC()
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return kept, dropped, err
}

// Close releases the append handle and reports the first Put error
// (a failed append or a refused untraced result), if any — the ones
// Runner and the distributed executor swallow.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	werr := c.writeErr
	if c.f != nil {
		if err := c.f.Close(); err != nil && werr == nil {
			werr = fmt.Errorf("cache: %w", err)
		}
		c.f = nil
	}
	return werr
}
