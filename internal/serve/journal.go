package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/kb"
)

// The job journal makes the scheduler's job records durable: every job is
// appended to <snapshotDir>/jobs.ndjson when it is accepted and again on
// each status transition, with an fsync after each append. A warm start
// replays the journal: jobs whose last record is terminal come back as
// queryable history, and jobs that were still queued or running when the
// process died come back as "interrupted", carrying their full inputs so
// the operator can resubmit them. Replay then compacts the journal to one
// merged record per retained job through kb.AtomicWriteFile, so the file
// never grows beyond the retained set plus the transitions appended since
// the last compaction. Each open, write, fsync and reopen first passes
// kb.BeforeStep, the crash seam the snapshot files use too.
const journalFile = "jobs.ndjson"

// jobRecord is one journal line: the full job description on the
// "queued" record, and sparse transition fields afterwards. Replay folds
// a job's records in order — later non-empty fields override.
type jobRecord struct {
	ID     int64  `json:"id"`
	Status string `json:"status"`
	// Enqueue-time inputs (present on the "queued" record and on
	// compacted merged records).
	Kind   string     `json:"kind,omitempty"`
	Class  string     `json:"class,omitempty"`
	Tables []int      `json:"tables,omitempty"`
	Auto   int        `json:"auto,omitempty"`
	Raw    []RawTable `json:"raw,omitempty"`
	After  []int64    `json:"after,omitempty"`
	// Transition details.
	RawIDs []int  `json:"rawIDs,omitempty"`
	Error  string `json:"error,omitempty"`
	// Unix is the transition's wall-clock second, used by the TTL
	// eviction of finished records.
	Unix int64 `json:"unix,omitempty"`
}

// jobJournal appends job records to the journal file and rewrites it on
// compaction. Calls are serialized by the scheduler's jobMu; the journal
// itself holds no lock.
type jobJournal struct {
	path string
	f    *os.File
}

// openJobJournal opens (creating if needed) the journal in dir for
// appending. Callers replay the prior contents first via replayJobJournal.
func openJobJournal(dir string) (*jobJournal, error) {
	path := filepath.Join(dir, journalFile)
	if err := kb.BeforeStep(kb.StepJournalOpen, path); err != nil {
		return nil, fmt.Errorf("serve: opening job journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: opening job journal: %w", err)
	}
	return &jobJournal{path: path, f: f}, nil
}

// close releases the append handle. The returned error is the Close
// error of the underlying file: every append fsyncs before returning, so
// nothing unflushed can be lost here, but a failing Close still signals
// a sick filesystem and callers on durability paths must surface it.
func (jl *jobJournal) close() error {
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	if err != nil {
		return fmt.Errorf("serve: closing job journal: %w", err)
	}
	return nil
}

// append writes one record plus newline and fsyncs, making the transition
// durable before the caller acts on it.
func (jl *jobJournal) append(rec jobRecord) error {
	raw, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("serve: encoding job record: %w", err)
	}
	raw = append(raw, '\n')
	err = kb.BeforeStep(kb.StepJournalWrite, jl.path)
	if err == nil {
		_, err = jl.f.Write(raw)
	}
	if err != nil {
		return fmt.Errorf("serve: appending job record: %w", err)
	}
	if err := kb.BeforeStep(kb.StepJournalFsync, jl.path); err != nil {
		return fmt.Errorf("serve: syncing job journal: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("serve: syncing job journal: %w", err)
	}
	return nil
}

// compact rewrites the journal to exactly one merged record per entry of
// recs (ordered by ID), committing via temp-file+rename+fsync so a crash
// mid-compaction leaves the previous journal intact, then reopens the
// append handle on the new file.
func (jl *jobJournal) compact(recs []jobRecord) error {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	if err := kb.AtomicWriteFile(jl.path, func(f *os.File) error {
		w := bufio.NewWriter(f)
		for i := range recs {
			raw, err := json.Marshal(&recs[i])
			if err != nil {
				return err
			}
			raw = append(raw, '\n')
			if _, err := w.Write(raw); err != nil {
				return err
			}
		}
		return w.Flush()
	}); err != nil {
		return fmt.Errorf("serve: compacting job journal: %w", err)
	}
	if err := jl.close(); err != nil {
		return err
	}
	if err := kb.BeforeStep(kb.StepJournalReopen, jl.path); err != nil {
		return fmt.Errorf("serve: reopening job journal: %w", err)
	}
	f, err := os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: reopening job journal: %w", err)
	}
	jl.f = f
	return nil
}

// replayJobJournal reads the journal in dir and folds each job's records
// into its final state, returned in ID order alongside the highest ID
// seen. A missing journal returns an empty slice. A line that does not
// decode ends the replay there — it is the torn tail of an append the
// crash cut short; everything before it is intact by the fsync ordering
// (records later in the file are strictly younger).
func replayJobJournal(dir string) ([]jobRecord, int64, error) {
	f, err := os.Open(filepath.Join(dir, journalFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: opening job journal: %w", err)
	}
	defer f.Close()

	byID := make(map[int64]*jobRecord)
	var maxID int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail of a crashed append; stop here.
			break
		}
		if rec.ID <= 0 {
			continue
		}
		if rec.ID > maxID {
			maxID = rec.ID
		}
		if cur := byID[rec.ID]; cur != nil {
			// Fold a later record: every field but id and status is
			// omitempty, so decoding the line over the record overrides
			// exactly the fields the line carries.
			if json.Unmarshal(line, cur) != nil {
				break
			}
			continue
		}
		byID[rec.ID] = &rec
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("serve: reading job journal: %w", err)
	}
	out := make([]jobRecord, 0, len(byID))
	for _, rec := range byID {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, maxID, nil
}
