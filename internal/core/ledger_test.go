package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// ledgerPath holds the bit ledger: one line per ledgerRows row.
const ledgerPath = "testdata/ledger.txt"

// ledgerNames are the hex-valued columns of a ledger row, in order.
var ledgerNames = [4]string{"L", "W", "z", "load"}

// ledgerRow is one solve of the ledger grid: the bits of L, W, z_s and
// the load, and a SHA-256 over the rest of what the solve serves.
type ledgerRow struct {
	id   string
	bits [4]uint64
	sum  string
}

func (r ledgerRow) String() string {
	return fmt.Sprintf("%s %016x %016x %016x %016x %s", r.id, r.bits[0], r.bits[1], r.bits[2], r.bits[3], r.sum)
}

// fmaAxpy reports whether linalg.Axpy fuses its multiply-adds on this
// host: a·x + y with a = x = 1 + 2⁻³⁰ and y = −(1 + 2⁻²⁹) is 2⁻⁶⁰ when
// fused and 0 when the product is rounded first.
func fmaAxpy() bool {
	a := 1 + 0x1p-30
	y := []float64{-(1 + 0x1p-29)}
	linalg.Axpy(a, []float64{a}, y)
	return y[0] != 0
}

// ledgerRows solves the ledger grid: the Sun model at N ∈ {1, 2, 3, 6,
// 10, 16, 20}, and stabilitySystems' H2/H2 and H3/exp at N ∈ {1, 2, 3, 6,
// 10}, each at seven loads with λ from eq. 11's closed form, by Solve,
// SolveApprox, SolveMatrixGeometric (where s ≤ 66 and the load ≤ 0.9),
// BatchSolver.Solve and BatchSolver.SolveSteady. The Solve and
// BatchSolver.Solve rows at loads 0.99 and 0.999 hash no
// OperativeBreakdown: it sums O(s²) per level over the ~log(1e-13)/log(z_s)
// levels of the tail, 25 of the grid's 28 s with it.
func ledgerRows(t *testing.T) []ledgerRow {
	type model struct {
		name string
		sys  System
		ns   []int
	}
	models := []model{{"sun", fig5System(0, 1), []int{1, 2, 3, 6, 10, 16, 20}}}
	for _, m := range stabilitySystems() {
		if m.name == "H2/H2" || m.name == "H3/exp" {
			models = append(models, model{m.name, m.sys, []int{1, 2, 3, 6, 10}})
		}
	}
	var rows []ledgerRow
	for _, m := range models {
		for _, n := range m.ns {
			base := m.sys
			base.Servers = n
			bs, err := NewBatchSolver(base)
			if err != nil {
				t.Fatalf("%s N=%d: %v", m.name, n, err)
			}
			for _, load := range []float64{0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999} {
				sys := base
				sys.ArrivalRate = load * float64(n) * sys.ServiceRate * sys.Availability()
				id := fmt.Sprintf("%s/N=%d/load=%v", m.name, n, load)
				add := func(method string, perf *Performance, err error, dist, breakdown bool) {
					if err != nil {
						t.Fatalf("%s/%s: %v", id, method, err)
					}
					rows = append(rows, newLedgerRow(id+"/"+method, n, perf, dist, breakdown))
				}
				cheap := load <= 0.9
				perf, err := sys.Solve()
				add("spectral", perf, err, true, cheap)
				perf, err = sys.SolveApprox()
				add("approx", perf, err, true, true)
				if sys.Modes() <= 66 && load <= 0.9 {
					perf, err = sys.SolveMatrixGeometric()
					add("mg", perf, err, true, true)
				}
				perf, err = bs.Solve(sys.ArrivalRate)
				add("batch", perf, err, true, cheap)
				perf, err = bs.SolveSteady(sys.ArrivalRate)
				add("steady", perf, err, false, false)
			}
		}
	}
	return rows
}

// newLedgerRow records perf, a solve of n servers. Its SHA-256 covers,
// with dist, QueueProb(j) for j ≤ n+5 and ModeMarginals, and with
// breakdown OperativeBreakdown; SolveSteady keeps no solution, so its row
// hashes nothing.
func newLedgerRow(id string, n int, perf *Performance, dist, breakdown bool) ledgerRow {
	r := ledgerRow{id: id, bits: [4]uint64{
		math.Float64bits(perf.MeanJobs),
		math.Float64bits(perf.MeanResponse),
		math.Float64bits(perf.TailDecay),
		math.Float64bits(perf.Load),
	}}
	h := sha256.New()
	put := func(v float64) { _ = binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	if dist {
		for j := 0; j <= n+5; j++ {
			put(perf.QueueProb(j))
		}
		for _, v := range perf.ModeMarginals() {
			put(v)
		}
	}
	if breakdown {
		for _, st := range perf.OperativeBreakdown() {
			put(float64(st.Operative))
			put(st.Prob)
			put(st.MeanQueue)
		}
	}
	r.sum = hex.EncodeToString(h.Sum(nil))
	return r
}

// readLedger parses the ledger file; lines starting with # are comments.
func readLedger(path string) ([]ledgerRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []ledgerRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 6 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		r := ledgerRow{id: fields[0], sum: fields[5]}
		for i := range r.bits {
			if r.bits[i], err = strconv.ParseUint(fields[1+i], 16, 64); err != nil {
				return nil, fmt.Errorf("%s: row %s: %v", path, r.id, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// ulps returns how many float64 steps apart two bit patterns of the same
// sign lie.
func ulps(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestBitLedger holds every served number of the ledger grid to the bits
// recorded in testdata/ledger.txt. The ledger was recorded where
// linalg.Axpy fuses its multiply-adds; elsewhere the last bits differ and
// the test skips. A missing ledger is written and the test fails until it
// is committed. A change that moves a bit on purpose deletes the file,
// reruns the test and commits the new ledger with the rows it moved.
func TestBitLedger(t *testing.T) {
	if !fmaAxpy() {
		t.Skip("linalg.Axpy does not fuse its multiply-adds on this host; the ledger records the fused path")
	}
	got := ledgerRows(t)
	want, err := readLedger(ledgerPath)
	if os.IsNotExist(err) {
		var b strings.Builder
		b.WriteString("# Bit ledger of TestBitLedger: row id, then the hex bits of L, W, z_s and\n")
		b.WriteString("# the load, then a SHA-256 over QueueProb(j ≤ N+5), ModeMarginals and\n")
		b.WriteString("# OperativeBreakdown (see ledgerRows for the rows that hash less).\n")
		b.WriteString("# Recorded on the fused-multiply-add Axpy path.\n")
		for _, r := range got {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s with %d rows; commit it", ledgerPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows solved, the ledger has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.id != w.id {
			t.Fatalf("row %d is %s, the ledger has %s", i, g.id, w.id)
		}
		for q, name := range ledgerNames {
			if g.bits[q] != w.bits[q] {
				t.Errorf("%s: %s = %v (%016x), ledger %v (%016x), %d ulps", g.id, name,
					math.Float64frombits(g.bits[q]), g.bits[q], math.Float64frombits(w.bits[q]), w.bits[q], ulps(g.bits[q], w.bits[q]))
			}
		}
		if g.sum != w.sum {
			t.Errorf("%s: SHA-256 of QueueProb, ModeMarginals and OperativeBreakdown differs from the ledger", g.id)
		}
	}
}
