package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultinject"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// checkWrittenSnapshot asserts that the checkpoint file at path holds
// exactly json.Marshal of the snapshot it decodes to — the encoding every
// earlier build wrote — and returns the decoded snapshot.
func checkWrittenSnapshot(t *testing.T, path string) *checkpoint.Snapshot {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	const frame = 16 // file header plus record header
	if n := binary.LittleEndian.Uint32(raw[8:12]); int(n) != len(raw)-frame || !bytes.Equal(raw[frame:], payload) {
		t.Fatalf("trial %d: checkpoint bytes differ from json.Marshal of the snapshot\n got: %s\nwant: %s",
			snap.Trial, raw[frame:], payload)
	}
	return snap
}

// runCheckedSession runs s with a synchronous every-round keeper and checks
// the checkpoint on disk after every delivered trial and at the end.
func runCheckedSession(t *testing.T, s *core.Session) *checkpoint.Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "session.ckpt")
	keeper := checkpoint.NewKeeper(path, 1, nil)
	keeper.SyncWrites = true
	s.Checkpoint = keeper
	checked := 0
	s.OnProgress = func(core.TracePoint) {
		if _, err := os.Stat(path); err == nil {
			checkWrittenSnapshot(t, path)
			checked++
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no checkpoint was checked mid-session")
	}
	return checkWrittenSnapshot(t, path)
}

func TestCheckpointBytesMatchMarshal(t *testing.T) {
	prof, _ := workload.ByName("h2")
	plan, err := faultinject.ParsePlan("launch=0.2,straggle=0.1")
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		new  func(t *testing.T) runner.Runner
	}{
		{"in-process", func(*testing.T) runner.Runner { return runner.NewInProcess(jvmsim.New(), prof) }},
		{"chaos", func(*testing.T) runner.Runner {
			return faultinject.New(runner.NewInProcess(jvmsim.New(), prof), plan, 5)
		}},
		{"pool", func(t *testing.T) runner.Runner {
			pool, err := dispatch.NewPool(prof, dispatch.NewLocal(prof, "n0"), dispatch.NewLocal(prof, "n1"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pool.Close() })
			return pool
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			session := func() *core.Session {
				searcher, err := core.NewSearcher("hierarchical")
				if err != nil {
					t.Fatal(err)
				}
				return &core.Session{Runner: r.new(t), Searcher: searcher, BudgetSeconds: 3600, Seed: 9, Workers: 4}
			}
			full := runCheckedSession(t, session())

			// A session resumed from a mid-run snapshot restores the runner
			// state, then keeps writing the same bytes.
			mid := session()
			path := filepath.Join(t.TempDir(), "mid.ckpt")
			keeper := checkpoint.NewKeeper(path, 1, nil)
			keeper.SyncWrites = true
			mid.Checkpoint = keeper
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			mid.Ctx = ctx
			mid.OnProgress = func(tp core.TracePoint) {
				if tp.Trial >= full.Trial/2 {
					cancel()
				}
			}
			if _, err := mid.Run(); err == nil {
				t.Fatal("session survived its cancellation")
			}
			if err := keeper.Close(); err != nil {
				t.Fatal(err)
			}
			resumed := session()
			resumed.Resume = checkWrittenSnapshot(t, path)
			final := runCheckedSession(t, resumed)
			if final.Trial != full.Trial || !bytes.Equal(final.RunnerState, full.RunnerState) {
				t.Fatalf("resumed session ended at trial %d with different runner state; uninterrupted ended at %d",
					final.Trial, full.Trial)
			}
		})
	}
}
