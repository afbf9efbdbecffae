package checkpoint

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// DefaultEveryTrials is the checkpoint cadence when the caller does not pick
// one: frequent enough that a crash loses at most a handful of trials. Each
// write rewrites the whole session — about 2 KB per delivered trial, so
// ~270 KB for a 140-trial hierarchical session and over 100 MB for a long
// random-search one — plus an fsync. Encoding stays proportional to the
// trials since the previous write (TrialLog, runner.State), but the bytes
// written and checksummed grow with the session.
const DefaultEveryTrials = 8

// Keeper writes session snapshots to a fixed path on a trial cadence
// without blocking the session. The engine hands it a Snapshot at a round
// boundary: the runner state it encodes there, plus the pre-encoded trial
// log; streaming those pieces to disk, the fsync, and the atomic rename
// happen on a background goroutine. If that write is still in
// flight when the next one is due, the new snapshot is skipped rather than
// queued — a checkpoint is a whole-state document, so the freshest one to
// finish wins and a backlog would only delay it.
type Keeper struct {
	path string
	// Every is the trial cadence; zero means DefaultEveryTrials.
	Every int
	// SyncWrites makes Write complete the disk write before returning.
	// Tests use it to assert on-disk state; production leaves it off.
	SyncWrites bool

	tel *telemetry.Registry

	mu   sync.Mutex
	last int  // trial count at the most recent accepted write
	busy bool // a background write is in flight
	err  error
	wg   sync.WaitGroup
}

// NewKeeper returns a Keeper writing to path. tel may be nil.
func NewKeeper(path string, everyTrials int, tel *telemetry.Registry) *Keeper {
	return &Keeper{path: path, Every: everyTrials, tel: tel}
}

// Path returns the checkpoint destination.
func (k *Keeper) Path() string {
	if k == nil {
		return ""
	}
	return k.path
}

// Due reports whether a session at the given trial count should checkpoint.
func (k *Keeper) Due(trial int) bool {
	if k == nil {
		return false
	}
	every := k.Every
	if every <= 0 {
		every = DefaultEveryTrials
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return trial-k.last >= every
}

// Write persists snap asynchronously (synchronously when SyncWrites is
// set). Returns false when skipped because a prior write is still running.
func (k *Keeper) Write(snap *Snapshot) bool {
	if k == nil {
		return false
	}
	k.mu.Lock()
	if k.busy {
		k.mu.Unlock()
		k.tel.Counter("checkpoint_write_skipped_total").Inc()
		return false
	}
	k.busy = true
	k.last = snap.Trial
	k.mu.Unlock()

	if k.SyncWrites {
		k.save(snap)
		return true
	}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		k.save(snap)
	}()
	return true
}

func (k *Keeper) save(snap *Snapshot) {
	start := time.Now()
	err := snap.Save(k.path)
	k.tel.Histogram("checkpoint_write_seconds", telemetry.DefLatencyBuckets).Observe(time.Since(start).Seconds())
	if err != nil {
		k.tel.Counter("checkpoint_write_errors_total").Inc()
	} else {
		k.tel.Counter("checkpoint_writes_total").Inc()
		k.tel.Gauge("checkpoint_last_trial").Set(float64(snap.Trial))
	}
	k.mu.Lock()
	k.busy = false
	if err != nil {
		k.err = err
	}
	k.mu.Unlock()
}

// Close waits for any in-flight write and returns the last write error, if
// any. Safe on nil.
func (k *Keeper) Close() error {
	if k == nil {
		return nil
	}
	k.wg.Wait()
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.err
}
