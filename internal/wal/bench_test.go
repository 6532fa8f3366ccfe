package wal

import (
	"fmt"
	"testing"
)

// BenchmarkAppendCommit measures the journal's per-write cost at
// fsync=off: buffering one value batch (encode + frame + CRC) and
// committing it to the page cache. Every 64 MiB of journal the timer
// stops for a snapshot, which deletes the segments written so far, so a
// long run does not fill the disk.
func BenchmarkAppendCommit(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("values=%d", n), func(b *testing.B) {
			l, _, err := Open(Options{Dir: b.TempDir(), Fsync: PolicyOff})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i) * 1.25
			}
			every := max(1, (64<<20)/(8*n))
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.AppendBatch(xs, false)
				if err := l.Commit(); err != nil {
					b.Fatal(err)
				}
				if i%every == every-1 {
					b.StopTimer()
					if err := l.WriteSnapshot(&Snapshot{}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}
