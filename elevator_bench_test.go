package hive

// BenchmarkElevator measures the LLAP I/O elevator (PR 9, paper §5.1):
// the async decode pool plus decoded-vector cache against the synchronous
// decode path (hive.llap.elevator=false). Four regimes:
//
//   - repeat_selective: a needle-in-haystack selective scan (non-sargable
//     predicate, so every stripe is read; one row survives) repeated
//     against warm caches over a delete-free table. Decode is the
//     dominant per-query cost, and with the elevator on every stripe is
//     served from the decoded-vector cache — this isolates decode
//     elision, the decoded cache's reason to exist.
//   - repeat_selective_acid: the same needle over an ACID table with live
//     delete deltas. The per-row delete anti-join runs identically in
//     both modes, so the ratio shows the benefit under merge-on-read.
//   - repeat_sarg: a narrow sargable range — most stripes are skipped by
//     min/max statistics before decode (and before prefetch enqueue), the
//     few survivors come from the decoded cache.
//   - cold: a fresh warehouse per measurement (cold chunk and decoded
//     caches) with simulated disk latency at DOP 4, so the win is
//     overlap — workers hint upcoming morsels, elevator threads absorb
//     seek latency ahead of the consumers — not cache residency.
//
// Rerun with `go test -run xxx -bench BenchmarkElevator .`; the measured
// scan-bound numbers are `go run ./benchmark -workload scan_cold`.

import (
	"fmt"
	"testing"
)

// setupElevatorBenchTable builds the same doubled multi-stripe table as
// setupElevatorTable but without delete deltas, isolating decode cost from
// the per-row delete anti-join (which the elevator does not touch).
func setupElevatorBenchTable(t testing.TB, s *Session) {
	t.Helper()
	s.MustExec(`CREATE TABLE ev (k BIGINT, v DOUBLE, tag STRING)`)
	ins := "INSERT INTO ev VALUES "
	for i := 0; i < 512; i++ {
		if i > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, %d.5, 'tag%d')", i, i, i%7)
	}
	s.MustExec(ins)
	total := 512
	for total < 32768 {
		s.MustExec(fmt.Sprintf(`INSERT INTO ev SELECT k + %d, v + %d.0, tag FROM ev`, total, total))
		total *= 2
	}
	s.SetConf("hive.query.results.cache.enabled", "false")
}

func benchElevatorWarehouse(b *testing.B, elevator string, deletes bool) (*Warehouse, *Session) {
	b.Helper()
	wh, err := Open(Config{DiskLatency: true})
	if err != nil {
		b.Fatal(err)
	}
	s := wh.Session()
	if deletes {
		setupElevatorTable(b, s)
	} else {
		setupElevatorBenchTable(b, s)
	}
	s.SetConf("hive.llap.elevator", elevator)
	return wh, s
}

func BenchmarkElevator(b *testing.B) {
	// Non-sargable needle: every stripe is read, one row survives.
	const needle = `SELECT k, v, tag FROM ev WHERE k + 1 = 26051`
	// Sargable narrow range: stripe statistics skip all but one stripe.
	const sarg = `SELECT SUM(v) FROM ev WHERE k >= 26000 AND k < 26100`
	const full = `SELECT COUNT(*), SUM(v), MIN(k), MAX(k) FROM ev`
	modes := []struct{ name, elevator string }{{"on", "true"}, {"off", "false"}}

	repeat := func(name, q string, deletes bool) {
		for _, m := range modes {
			b.Run(name+"/"+m.name, func(b *testing.B) {
				wh, s := benchElevatorWarehouse(b, m.elevator, deletes)
				defer wh.Close()
				s.SetConf("hive.parallelism", "1")
				s.MustExec(q) // warm chunk + decoded caches
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.MustExec(q)
				}
			})
		}
	}
	repeat("repeat_selective", needle, false)
	repeat("repeat_selective_acid", needle, true)
	repeat("repeat_sarg", sarg, true)

	for _, m := range modes {
		b.Run("cold/"+m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wh, s := benchElevatorWarehouse(b, m.elevator, true)
				s.SetConf("hive.parallelism", "4")
				b.StartTimer()
				s.MustExec(full)
				b.StopTimer()
				wh.Close()
			}
		})
	}
}
