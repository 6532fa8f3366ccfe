package sumdsrv

import "testing"

// TestRecycleValuesCapsPooledSize pins that a buffer grown past
// maxPooledValues never enters the pool, so one huge body cannot pin
// its size in memory for the life of the process.
func TestRecycleValuesCapsPooledSize(t *testing.T) {
	big := make([]float64, maxPooledValues+1)
	recycleValues(&big)
	for i := 0; i < 64; i++ {
		got := valuePool.Get().(*[]float64)
		if got == &big || cap(*got) > maxPooledValues {
			t.Fatalf("pool handed out a buffer of %d values (cap %d)", cap(*got), maxPooledValues)
		}
	}
}
