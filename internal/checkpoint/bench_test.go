package checkpoint

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// BenchmarkCheckpointWrite measures one checkpoint of a session that has
// delivered n trials: the runner snapshot plus the snapshot record's
// encode and framing, as the session and its keeper pay them (the fsync
// and rename are left out). The session's state is warm — every trial was
// encoded when it was delivered — so the cost should track the bytes
// written, not re-encoding the session.
func BenchmarkCheckpointWrite(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("trials=%d", n), func(b *testing.B) {
			prof, _ := workload.ByName("h2")
			r := runner.NewInProcess(jvmsim.New(), prof)
			reg := flags.NewRegistry()
			ids := reg.TunableIDs()[:12]
			rng := rand.New(rand.NewSource(1))
			var log TrialLog
			for i := 0; i < n; i++ {
				cfg := flags.NewConfig(reg)
				flags.RandomizeFlags(cfg, ids, rng)
				m := r.Measure(cfg, 3)
				log.Append(TrialRecord{Seq: i, Key: m.Key, M: m})
			}
			write := func() int {
				state, err := r.SnapshotState()
				if err != nil {
					b.Fatal(err)
				}
				snap := &Snapshot{Meta: Meta{Workload: "h2"}, Trial: n, RunnerState: state}
				snap.SetTrialLog(&log)
				cw := &countingWriter{}
				if err := snap.Encode(cw); err != nil {
					b.Fatal(err)
				}
				return cw.n
			}
			b.SetBytes(int64(write()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write()
			}
		})
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return io.Discard.Write(p)
}
