package repro

import (
	"context"
	"testing"
)

// BenchmarkClientBestMemoized measures Client.Best on a long-lived
// client: after the first call, one cache probe per heuristic.
func BenchmarkClientBestMemoized(b *testing.B) {
	apps, pl := NPB(), TaihuLight()
	for i := range apps {
		apps[i].SeqFraction = 0.05
	}
	c := NewClient(WithSeed(42))
	ctx := context.Background()
	if _, _, err := c.Best(ctx, pl, apps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Best(ctx, pl, apps); err != nil {
			b.Fatal(err)
		}
	}
}
