package serve

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

// TestCacheOneBudget: fingerprints that agree in their low bits, as the
// FNV-1a fingerprints of related programs do, share the whole byte
// budget. Sixteen bodies that share one fp%16 and together fit the
// budget all stay resident, and a body bigger than a sixteenth of the
// budget but smaller than all of it is admitted.
func TestCacheOneBudget(t *testing.T) {
	const budget = 64 << 10
	c := NewCache(budget)
	fp := func(i uint64) uint64 { return i<<4 | 2 }
	body := []byte(strings.Repeat("x", 3<<10))
	for i := uint64(0); i < 16; i++ {
		c.Put(fp(i), body)
	}
	big := []byte(strings.Repeat("y", 8<<10)) // > budget/16, < budget
	if !c.Put(fp(16), big) {
		t.Fatalf("a %d-byte body was refused under a %d-byte budget", len(big), budget)
	}
	for i := uint64(0); i <= 16; i++ {
		if _, ok := c.Get(fp(i)); !ok {
			t.Errorf("body %d is not resident", i)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Oversize != 0 || st.Entries != 17 || st.Budget != budget {
		t.Fatalf("stats %+v: want 17 entries, 0 evictions, 0 oversize, budget %d", st, budget)
	}
}

// BenchmarkCacheGet is the cache's share of the hit path: parallel Gets
// over a few hundred resident keys, so -cpu 1,2,... shows what the one
// mutex costs a hit as callers contend for it.
func BenchmarkCacheGet(b *testing.B) {
	const keys = 256
	c := NewCache(0)
	r := rand.New(rand.NewSource(1))
	fps := make([]uint64, keys)
	body := make([]byte, 1<<10)
	for i := range fps {
		fps[i] = r.Uint64()
		c.Put(fps[i], body)
	}
	var start atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := start.Add(keys / 8) // callers start apart in the key set
		for pb.Next() {
			if _, ok := c.Get(fps[i%keys]); !ok {
				b.Error("a resident key missed")
				return
			}
			i++
		}
	})
}
