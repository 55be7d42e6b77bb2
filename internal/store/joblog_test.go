package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/api"
	"repro/internal/obs"
)

// sweepEntry builds a representative submit entry for job id.
func sweepEntry(id string) Entry {
	return Entry{
		Kind:   EntrySubmit,
		Job:    id,
		Time:   time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
		Origin: "node-a",
		Request: &api.JobRequest{
			Kind: api.JobKindSweep,
			Sweep: &api.SweepRequest{
				System: api.System{
					Servers:    4,
					Mu:         1,
					OpWeights:  []float64{1},
					OpRates:    []float64{0.05},
					RepWeights: []float64{1},
					RepRates:   []float64{0.5},
				},
				Param:  "lambda",
				Values: []float64{0.1, 0.5, 0.9},
			},
		},
	}
}

func TestJobLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenJobLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenJobLog: %v", err)
	}
	entries := []Entry{
		sweepEntry("job-1"),
		{Kind: EntryState, Job: "job-1", Time: time.Now().UTC(), State: api.JobStateRunning},
		{Kind: EntryPoints, Job: "job-1", Time: time.Now().UTC(), Points: []api.SweepPoint{
			{Index: 0, Value: 0.1}, {Index: 1, Value: 0.5},
		}},
		{Kind: EntryState, Job: "job-1", Time: time.Now().UTC(), State: api.JobStateDone},
	}
	for _, e := range entries {
		if err := l.Append(e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l, err = OpenJobLog(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	var got []Entry
	if err := l.Replay(func(e Entry) error { got = append(got, e); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(entries))
	}
	if got[0].Kind != EntrySubmit || got[0].Job != "job-1" || got[0].Origin != "node-a" {
		t.Fatalf("submit entry mangled: %+v", got[0])
	}
	if got[0].Request == nil || got[0].Request.Sweep == nil || len(got[0].Request.Sweep.Values) != 3 {
		t.Fatalf("request payload mangled: %+v", got[0].Request)
	}
	if got[2].Kind != EntryPoints || len(got[2].Points) != 2 || got[2].Points[1].Value != 0.5 {
		t.Fatalf("points entry mangled: %+v", got[2])
	}
	if got[3].State != api.JobStateDone {
		t.Fatalf("state entry mangled: %+v", got[3])
	}
}

func TestJobLogCompactDropsExpiredJobs(t *testing.T) {
	l, err := OpenJobLog(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("OpenJobLog: %v", err)
	}
	defer l.Close()
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("job-%d", i)
		if err := l.Append(sweepEntry(id)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Append(Entry{Kind: EntryState, Job: id, Time: time.Now().UTC(), State: api.JobStateDone}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	retained := map[string]bool{"job-1": true, "job-4": true}
	if err := l.Compact(func(id string) bool { return retained[id] }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	perJob := map[string]int{}
	if err := l.Replay(func(e Entry) error { perJob[e.Job]++; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(perJob) != 2 || perJob["job-1"] != 2 || perJob["job-4"] != 2 {
		t.Fatalf("compaction kept the wrong set: %v", perJob)
	}
}

func TestJobLogSkipsUndecodableEntries(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenJobLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenJobLog: %v", err)
	}
	defer l.Close()
	if err := l.Append(sweepEntry("job-1")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// A CRC-valid record that is not JSON: a future format extension or a
	// hand-edited log. Replay must skip it, not fail the boot.
	if err := l.wal.Append([]byte("not-json")); err != nil {
		t.Fatalf("raw Append: %v", err)
	}
	// A CRC-valid points record cut short: skipped the same way.
	rec, err := encodeEntry(goldenPointsEntry())
	if err != nil {
		t.Fatalf("encodeEntry: %v", err)
	}
	if err := l.wal.Append(rec[:len(rec)-3]); err != nil {
		t.Fatalf("raw Append: %v", err)
	}
	if err := l.Append(Entry{Kind: EntryState, Job: "job-1", Time: time.Now().UTC(), State: api.JobStateRunning}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	var kinds []EntryKind
	if err := l.Replay(func(e Entry) error { kinds = append(kinds, e.Kind); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(kinds) != 2 || kinds[0] != EntrySubmit || kinds[1] != EntryState {
		t.Fatalf("replayed kinds = %v, want [submit state]", kinds)
	}
	if n := l.ReplaySkipped(); n != 2 {
		t.Fatalf("ReplaySkipped = %d, want 2", n)
	}
	r := obs.NewRegistry()
	l.RegisterMetrics(r)
	snap := r.Snapshot()
	if got := snap["mus_store_replay_skipped_records"]; got != 2 {
		t.Fatalf("mus_store_replay_skipped_records = %v, want 2", got)
	}
	if got := snap["mus_store_replayed_records"]; got != 4 {
		t.Fatalf("mus_store_replayed_records = %v, want 4 (skipped records included)", got)
	}
}

// goldenJSONPoints is a points record byte for byte as JobLog.Append wrote
// it before points records became binary. Logs holding such records must
// keep replaying to the same Entry.
const goldenJSONPoints = `{"kind":"points","job":"j5f0e3c1a9b2d4e68","time":"2026-10-17T12:00:00.123456789Z",` +
	`"points":[{"index":3,"value":7.25,"perf":{"mean_jobs":12.345678901234567,"mean_response":1.7028522622392508,` +
	`"tail_decay":0.8660254037844386,"load":0.6904761904761905}},{"index":4,"value":7.5,"error":"spectral: load 1.02 \u003e= 1"}]}`

// goldenPointsHex is the same entry in the binary points layout: tag 01,
// job length 0x11 and ID, Unix seconds and nanoseconds, count 2, then
// point 3 (zigzag index 06, value, flag 01, four perf floats, no error)
// and point 4 (index 08, value, flag 00, a 0x18-byte error text).
var goldenPointsHex = "01" + "11" + "6a356630653363316139623264346536" + "38" +
	"4063d36a00000000" + "15cd5b07" + "02" +
	"06" + "0000000000001d40" + "01" +
	"7a702fd3fcb02840" + "90cb8303e23efb3f" + "aa4c58e87ab6eb3f" + "866118866118e63f" + "00" +
	"08" + "0000000000001e40" + "00" + "18" + hexText("spectral: load 1.02 >= 1")

func hexText(s string) string { return hex.EncodeToString([]byte(s)) }

// goldenPointsEntry is the entry both golden records encode.
func goldenPointsEntry() Entry {
	return Entry{
		Kind: EntryPoints,
		Job:  "j5f0e3c1a9b2d4e68",
		Time: time.Date(2026, 10, 17, 12, 0, 0, 123456789, time.UTC),
		Points: []api.SweepPoint{
			{Index: 3, Value: 7.25, Perf: &api.Performance{MeanJobs: 12.345678901234567,
				MeanResponse: 1.7028522622392508, TailDecay: 0.8660254037844386, Load: 0.6904761904761905}},
			{Index: 4, Value: 7.5, Error: "spectral: load 1.02 >= 1"},
		},
	}
}

// replayEntries returns every entry the log replays.
func replayEntries(t *testing.T, l *JobLog) []Entry {
	t.Helper()
	var got []Entry
	if err := l.Replay(func(e Entry) error { got = append(got, e); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestJobLogReplaysJSONPointsRecords(t *testing.T) {
	l, err := OpenJobLog(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("OpenJobLog: %v", err)
	}
	defer l.Close()
	if err := l.wal.Append([]byte(goldenJSONPoints)); err != nil {
		t.Fatalf("raw Append: %v", err)
	}
	got := replayEntries(t, l)
	if len(got) != 1 || !reflect.DeepEqual(got[0], goldenPointsEntry()) {
		t.Fatalf("JSON points record replayed as %+v, want %+v", got, goldenPointsEntry())
	}
	if n := l.ReplaySkipped(); n != 0 {
		t.Fatalf("ReplaySkipped = %d, want 0", n)
	}
}

func TestJobLogPointsLayout(t *testing.T) {
	l, err := OpenJobLog(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("OpenJobLog: %v", err)
	}
	defer l.Close()
	if err := l.Append(goldenPointsEntry()); err != nil {
		t.Fatalf("Append: %v", err)
	}
	raw := replayAll(t, l.wal)
	if got := hex.EncodeToString(raw[0]); len(raw) != 1 || got != goldenPointsHex {
		t.Fatalf("points record\n got %s\nwant %s", got, goldenPointsHex)
	}
	got := replayEntries(t, l)
	if len(got) != 1 || !reflect.DeepEqual(got[0], goldenPointsEntry()) {
		t.Fatalf("points record replayed as %+v, want %+v", got, goldenPointsEntry())
	}
	if n := l.ReplaySkipped(); n != 0 {
		t.Fatalf("ReplaySkipped = %d, want 0", n)
	}
}

// sameEntry reports whether two points entries are equal, comparing floats
// by their bits so NaN payloads and signed zeros count.
func sameEntry(a, b Entry) bool {
	if a.Kind != b.Kind || a.Job != b.Job || !a.Time.Equal(b.Time) || len(a.Points) != len(b.Points) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, p := range a.Points {
		q := b.Points[i]
		if p.Index != q.Index || !same(p.Value, q.Value) || p.Error != q.Error || (p.Perf == nil) != (q.Perf == nil) {
			return false
		}
		if p.Perf != nil && !(same(p.Perf.MeanJobs, q.Perf.MeanJobs) && same(p.Perf.MeanResponse, q.Perf.MeanResponse) &&
			same(p.Perf.TailDecay, q.Perf.TailDecay) && same(p.Perf.Load, q.Perf.Load)) {
			return false
		}
	}
	return true
}

func TestJobLogPointsRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenJobLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenJobLog: %v", err)
	}
	nan := math.Float64frombits(0x7ff8dead0000beef)
	negZero := math.Copysign(0, -1)
	at := time.Date(2026, 10, 17, 12, 0, 0, 999999999, time.UTC)
	want := []Entry{
		{Kind: EntryPoints, Job: "j-special", Time: at, Points: []api.SweepPoint{
			{Index: 0, Value: nan, Perf: &api.Performance{MeanJobs: nan, MeanResponse: negZero, TailDecay: math.Inf(1), Load: math.Inf(-1)}},
			{Index: -1, Value: negZero},
			{Index: math.MaxInt, Value: math.Inf(1), Error: "qbd: unstable"},
			{Index: math.MinInt, Value: math.SmallestNonzeroFloat64, Perf: &api.Performance{}},
		}},
		{Kind: EntryPoints, Job: "", Time: time.Unix(-1, 1).UTC()},
		{Kind: EntryPoints, Job: "j-one", Time: at, Points: []api.SweepPoint{{Index: 1 << 40, Value: math.MaxFloat64, Error: "\xff not utf-8"}}},
	}
	for _, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if l, err = OpenJobLog(dir, Options{}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	got := replayEntries(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameEntry(got[i], want[i]) {
			t.Errorf("entry %d replayed as %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].Points != nil {
		t.Errorf("pointless entry replayed with Points %#v, want nil", got[1].Points)
	}
	if n := l.ReplaySkipped(); n != 0 {
		t.Fatalf("ReplaySkipped = %d, want 0", n)
	}
}

func TestJobLogRefusesPointsEntryWithForeignFields(t *testing.T) {
	l, err := OpenJobLog(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("OpenJobLog: %v", err)
	}
	defer l.Close()
	req := sweepEntry("j").Request
	for name, set := range map[string]func(*Entry){
		"origin":     func(e *Entry) { e.Origin = "node-a" },
		"request_id": func(e *Entry) { e.RequestID = "r-1" },
		"trace":      func(e *Entry) { e.Trace = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" },
		"request":    func(e *Entry) { e.Request = req },
		"state":      func(e *Entry) { e.State = api.JobStateDone },
		"error":      func(e *Entry) { e.Error = &api.Error{Code: api.CodeInternal} },
		"result":     func(e *Entry) { e.Result = &api.JobResult{ID: "j"} },
	} {
		e := goldenPointsEntry()
		set(&e)
		if err := l.Append(e); err == nil {
			t.Errorf("Append of a points entry with %s set succeeded", name)
		}
	}
	if st := l.Stats(); st.AppendedRecords != 0 {
		t.Fatalf("refused entries reached the log: %d records", st.AppendedRecords)
	}
}

func TestDecodePointsRejectsMalformed(t *testing.T) {
	rec, err := encodeEntry(goldenPointsEntry())
	if err != nil {
		t.Fatalf("encodeEntry: %v", err)
	}
	valid := rec[1:]
	if _, err := decodePoints(valid); err != nil {
		t.Fatalf("valid record: %v", err)
	}
	// Offsets into the golden record: the time, the count, and each
	// point's flag (point 3 carries Perf, point 4 does not).
	const timeAt, countAt = 1 + 17, 1 + 17 + 12
	const flag3At = countAt + 1 + 1 + 8
	const flag4At = flag3At + 1 + 4*8 + 1 + 1 + 8
	edit := func(at int, b byte) []byte {
		c := append([]byte(nil), valid...)
		c[at] = b
		return c
	}
	cases := map[string][]byte{
		"trailing byte":        append(append([]byte(nil), valid...), 0),
		"flag 2 before perf":   edit(flag3At, 2),
		"flag 2 without perf":  edit(flag4At, 2),
		"nanoseconds ≥ 1e9":    edit(timeAt+8+3, 0xff),
		"count beyond payload": edit(countAt, 0x7f),
		"count short of data":  edit(countAt, 1),
	}
	for n := 0; n < len(valid); n++ {
		cases[fmt.Sprintf("cut at %d", n)] = valid[:n]
	}
	for name, b := range cases {
		if e, err := decodePoints(b); !errors.Is(err, errMalformedPoints) {
			t.Errorf("%s: decoded %+v, %v; want errMalformedPoints", name, e, err)
		}
	}
}

// FuzzJobLogPoints feeds arbitrary bytes to the points decoder as the
// payload after the tag, and arbitrary values through encode and decode.
// Decoding never panics, and allocates no more than the payload's length
// can describe; an encoded entry decodes to itself, bit for bit.
func FuzzJobLogPoints(f *testing.F) {
	valid, err := encodeEntry(goldenPointsEntry())
	if err != nil {
		f.Fatalf("encodeEntry: %v", err)
	}
	valid = valid[1:]
	specials := []struct {
		index int64
		bits  uint64
		perf  bool
		text  string
	}{
		{0, 0, true, ""},
		{-1, 0x7ff8dead0000beef, true, ""},                    // NaN with a payload
		{math.MaxInt64, 1 << 63, false, "spectral: unstable"}, // -0
		{math.MinInt64, 0x7ff0000000000000, true, "x"},        // +Inf
		{1 << 40, 0xfff0000000000000, false, "\xff\x00"},      // -Inf
	}
	// Every truncation of a valid record, the record itself, and records
	// whose counts claim far more than they hold.
	for n := 0; n <= len(valid); n++ {
		s := specials[n%len(specials)]
		f.Add(valid[:n], s.index, s.bits, s.perf, s.text)
	}
	// After the job length and ID and the time, a count of 2^20 points:
	// 40 MB of SweepPoints if the decoder trusted it.
	const header = 1 + 17 + 8 + 4
	huge := binary.AppendUvarint(append([]byte(nil), valid[:header]...), 1<<20)
	f.Add(huge, int64(0), uint64(0), false, "")
	// A job length of 2^64-1.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(0), uint64(0), false, "")
	f.Fuzz(func(t *testing.T, payload []byte, index int64, bits uint64, perf bool, text string) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		e, err := decodePoints(payload)
		runtime.ReadMemStats(&ms)
		// The slack covers the allocator's span-granular accounting; an
		// unchecked count or length allocates megabytes.
		if grew := ms.TotalAlloc - before; grew > 16*uint64(len(payload))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(payload), grew)
		}
		if err == nil {
			if len(e.Points)*minPointSize > len(payload) || cap(e.Points) != len(e.Points) {
				t.Fatalf("%d bytes decoded to %d points (cap %d)", len(payload), len(e.Points), cap(e.Points))
			}
			again, err := encodeEntry(e)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			back, err := decodeEntry(again)
			if err != nil || !sameEntry(back, e) {
				t.Fatalf("re-encoded entry decoded as %+v, %v; want %+v", back, err, e)
			}
		} else if !errors.Is(err, errMalformedPoints) {
			t.Fatalf("decode error %v, want errMalformedPoints", err)
		}

		v := math.Float64frombits(bits)
		pt := api.SweepPoint{Index: int(index), Value: v, Error: text}
		if perf {
			pt.Perf = &api.Performance{MeanJobs: v, MeanResponse: -v, TailDecay: math.Float64frombits(^bits), Load: 1 / v}
		}
		in := Entry{Kind: EntryPoints, Job: text + "job", Time: time.Unix(index, int64(bits%1e9)).UTC(),
			Points: []api.SweepPoint{pt, {Index: -int(index), Value: -v}}}
		enc, err := encodeEntry(in)
		if err != nil {
			t.Fatalf("encodeEntry: %v", err)
		}
		if enc[0] != pointsTag {
			t.Fatalf("points record starts with %#x, want the tag %#x", enc[0], pointsTag)
		}
		out, err := decodeEntry(enc)
		if err != nil || !sameEntry(out, in) {
			t.Fatalf("entry %+v decoded as %+v, %v", in, out, err)
		}
	})
}

func TestSnapshotRoundTripAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/snapshot.json"
	type payload struct {
		Keys []string `json:"keys"`
		N    int      `json:"n"`
	}
	var missing payload
	if err := ReadSnapshot(path, &missing); err != ErrNoSnapshot {
		t.Fatalf("ReadSnapshot(missing) = %v, want ErrNoSnapshot", err)
	}
	want := payload{Keys: []string{"a", "b"}, N: 42}
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	var got payload
	if err := ReadSnapshot(path, &got); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.N != want.N || len(got.Keys) != 2 || got.Keys[1] != "b" {
		t.Fatalf("snapshot round trip: got %+v, want %+v", got, want)
	}
	// Overwrite is atomic: a second write fully replaces the first.
	if err := WriteSnapshot(path, payload{N: 7}); err != nil {
		t.Fatalf("WriteSnapshot overwrite: %v", err)
	}
	got = payload{}
	if err := ReadSnapshot(path, &got); err != nil {
		t.Fatalf("ReadSnapshot after overwrite: %v", err)
	}
	if got.N != 7 || len(got.Keys) != 0 {
		t.Fatalf("overwrite not atomic: %+v", got)
	}
}
