package store

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/api"
)

// benchRecord is a realistic job-log payload size: a points entry of a
// few solved sweep points, JSON-encoded (~200 bytes).
var benchRecord = []byte(`{"kind":"points","job":"j-bench","points":[` +
	`{"index":0,"value":0.10,"perf":{"mean_jobs":1.23,"mean_response":4.56,"tail_decay":0.9,"load":0.4}},` +
	`{"index":1,"value":0.11,"perf":{"mean_jobs":1.25,"mean_response":4.60,"tail_decay":0.9,"load":0.41}}]}`)

// BenchmarkWALAppend measures the batched-fsync append path — the cost a
// sweep job pays per persisted points batch. SetBytes makes the reported
// MB/s the log's append throughput.
func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(b.TempDir(), Options{FsyncInterval: DefaultFsyncInterval})
	if err != nil {
		b.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	b.SetBytes(int64(len(benchRecord)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(benchRecord); err != nil {
			b.Fatalf("Append: %v", err)
		}
	}
	b.StopTimer()
	if err := w.Sync(); err != nil {
		b.Fatalf("Sync: %v", err)
	}
}

// BenchmarkWALReplay10k measures the WAL's framing and CRC scan over a
// 10k-record log, with a no-op callback: the floor of boot replay, without
// the cost of decoding entries (BenchmarkJobLogReplay measures that).
func BenchmarkWALReplay10k(b *testing.B) {
	dir := b.TempDir()
	w, err := OpenWAL(dir, Options{FsyncInterval: time.Second})
	if err != nil {
		b.Fatalf("OpenWAL: %v", err)
	}
	for i := 0; i < 10_000; i++ {
		if err := w.Append(fmt.Appendf(nil, "%s#%05d", benchRecord, i)); err != nil {
			b.Fatalf("Append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		b.Fatalf("Sync: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := w.Replay(func([]byte) error { n++; return nil }); err != nil {
			b.Fatalf("Replay: %v", err)
		}
		if n != 10_000 {
			b.Fatalf("replayed %d records, want 10000", n)
		}
	}
	b.StopTimer()
	w.Close()
}

// BenchmarkJobLogReplay measures boot replay as a durable node pays it:
// JobLog.Replay decoding every entry of a log shaped like a populated
// node's — per job one submit of a 32-value sweep, the running and done
// states, and 32 one-point points records, 1600 jobs (56,000 records).
func BenchmarkJobLogReplay(b *testing.B) {
	const jobs, points = 1600, 32
	l, err := OpenJobLog(b.TempDir(), Options{FsyncInterval: time.Second})
	if err != nil {
		b.Fatalf("OpenJobLog: %v", err)
	}
	defer l.Close()
	at := time.Date(2026, 10, 17, 12, 0, 0, 0, time.UTC)
	values := make([]float64, points)
	for i := range values {
		values[i] = 4 + 0.1*float64(i)
	}
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("j%016x", uint64(j)*0x9e3779b97f4a7c15)
		req := api.NewSweepJob(api.SweepRequest{
			System: api.System{Servers: 10, Mu: 1, OpWeights: []float64{1}, OpRates: []float64{0.05},
				RepWeights: []float64{1}, RepRates: []float64{0.5}},
			Param:  api.ParamLambda,
			Values: values,
		})
		entries := []Entry{
			{Kind: EntrySubmit, Job: id, Time: at, Origin: "local", RequestID: id + "-req",
				Trace: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", Request: &req},
			{Kind: EntryState, Job: id, Time: at, State: api.JobStateRunning},
		}
		for i, v := range values {
			w := 1 / (1 - v/10.5)
			entries = append(entries, Entry{Kind: EntryPoints, Job: id, Time: at, Points: []api.SweepPoint{{
				Index: i, Value: v,
				Perf: &api.Performance{MeanJobs: v * w, MeanResponse: w, TailDecay: math.Sqrt(v / 10.5), Load: v / 10.5},
			}}})
		}
		entries = append(entries, Entry{Kind: EntryState, Job: id, Time: at, State: api.JobStateDone})
		for _, e := range entries {
			if err := l.Append(e); err != nil {
				b.Fatalf("Append: %v", err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		b.Fatalf("Sync: %v", err)
	}
	const want = jobs * (3 + points)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(func(Entry) error { n++; return nil }); err != nil {
			b.Fatalf("Replay: %v", err)
		}
		if n != want {
			b.Fatalf("replayed %d entries, want %d", n, want)
		}
	}
}
