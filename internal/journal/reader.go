package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Process is one loaded journal: the event stream of one sweep
// process.
type Process struct {
	Path   string
	Header Header
	Tasks  []TaskEvent
	// Summary is nil when the process never finished cleanly (crash or
	// cancellation before Close) — reported, never guessed at.
	Summary *Summary
}

// Name renders a short human identity for the process: its role plus
// shard when sharded, falling back to the file name.
func (p *Process) Name() string {
	if p.Header.Role == "" {
		return strings.TrimSuffix(filepath.Base(p.Path), Ext)
	}
	if p.Header.Shard != "" {
		return fmt.Sprintf("%s shard %s", p.Header.Role, p.Header.Shard)
	}
	return fmt.Sprintf("%s pid %d", p.Header.Role, p.Header.PID)
}

// TierCounts are per-outcome task totals counted from the task events.
// SnapshotForks counts executed tasks that resumed a shared engine
// snapshot instead of simulating their warmup prefix; Executed counts
// only full from-scratch simulations.
type TierCounts struct {
	Tasks, Executed, SnapshotForks, MemoryHits, StoreHits, Errors int64
}

// Counts tallies the process's task events by outcome.
func (p *Process) Counts() TierCounts {
	var c TierCounts
	for _, t := range p.Tasks {
		c.Tasks++
		switch t.Outcome {
		case "executed":
			c.Executed++
		case "snapshot-fork":
			c.SnapshotForks++
		case "memory-hit":
			c.MemoryHits++
		case "store-hit":
			c.StoreHits++
		case "error":
			c.Errors++
		}
	}
	return c
}

// EngineCounters returns the process's engine introspection counters,
// summed over its task events: the one source of engine totals, so a
// crashed process's journal reads the same way as a complete one. ok
// is false when no task carries counters — a journal written before
// the counters field, or a sweep whose runs carried none — so reports
// render "-" instead of fabricating zeros.
func (p *Process) EngineCounters() (*sim.Counters, bool) {
	var sum *sim.Counters
	for i := range p.Tasks {
		if c := p.Tasks[i].Counters; c != nil {
			if sum == nil {
				sum = &sim.Counters{}
			}
			sum.Add(c)
		}
	}
	return sum, sum != nil
}

// WallMS returns the process's wall-clock extent in milliseconds: the
// summary's end minus the header's start, falling back to the last
// task's end for summary-less journals (0 when no tasks landed either).
func (p *Process) WallMS() float64 {
	if p.Summary != nil {
		return float64(p.Summary.EndMS - p.Header.StartMS)
	}
	var end float64
	for _, t := range p.Tasks {
		if e := float64(t.StartMS) + t.DurMS; e > end {
			end = e
		}
	}
	if end == 0 {
		return 0
	}
	return end - float64(p.Header.StartMS)
}

// WorkerBusy sums task durations per worker slot, in milliseconds.
// Slots that carried no tasks are absent.
func (p *Process) WorkerBusy() map[int]float64 {
	busy := make(map[int]float64)
	for _, t := range p.Tasks {
		busy[t.Worker] += t.DurMS
	}
	return busy
}

// Load reads one journal file. Records of unknown type are skipped
// (forward compatibility); a torn trailing line — a crashed writer —
// is skipped like the store index's, while a malformed line elsewhere
// is an error naming the line.
func Load(path string) (*Process, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	p := &Process{Path: path}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var pendingErr error // a parse failure is fatal only if another line follows
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			return nil, pendingErr
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tag struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &tag); err != nil {
			pendingErr = fmt.Errorf("journal: %s line %d: %w", path, lineNo, err)
			continue
		}
		switch tag.Type {
		case TypeHeader:
			if err := json.Unmarshal(line, &p.Header); err != nil {
				pendingErr = fmt.Errorf("journal: %s line %d: %w", path, lineNo, err)
			}
		case TypeTask:
			var t TaskEvent
			if err := json.Unmarshal(line, &t); err != nil {
				pendingErr = fmt.Errorf("journal: %s line %d: %w", path, lineNo, err)
				continue
			}
			p.Tasks = append(p.Tasks, t)
		case TypeSummary:
			var s Summary
			if err := json.Unmarshal(line, &s); err != nil {
				pendingErr = fmt.Errorf("journal: %s line %d: %w", path, lineNo, err)
				continue
			}
			p.Summary = &s
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	return p, nil
}

// LoadDir loads every *.journal.jsonl in dir, ordered by process start
// time (ties by path) — the cross-shard timeline order.
func LoadDir(dir string) ([]*Process, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var procs []*Process
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), Ext) {
			continue
		}
		p, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool {
		if procs[i].Header.StartMS != procs[j].Header.StartMS {
			return procs[i].Header.StartMS < procs[j].Header.StartMS
		}
		return procs[i].Path < procs[j].Path
	})
	if len(procs) == 0 {
		return nil, fmt.Errorf("journal: no journals found in %s (looked for *%s files)", dir, Ext)
	}
	return procs, nil
}

// SlowTask pairs a task event with the process that ran it, for the
// cross-shard slowest-cells view.
type SlowTask struct {
	Proc *Process
	Task TaskEvent
}

// SlowestTasks returns the n longest-running tasks across all
// processes, longest first; ties break deterministically by label, key
// and journal path so reports are stable.
func SlowestTasks(procs []*Process, n int) []SlowTask {
	var all []SlowTask
	for _, p := range procs {
		for _, t := range p.Tasks {
			all = append(all, SlowTask{Proc: p, Task: t})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Task.DurMS != b.Task.DurMS {
			return a.Task.DurMS > b.Task.DurMS
		}
		if a.Task.Label != b.Task.Label {
			return a.Task.Label < b.Task.Label
		}
		if a.Task.Key != b.Task.Key {
			return a.Task.Key < b.Task.Key
		}
		return a.Proc.Path < b.Proc.Path
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}
