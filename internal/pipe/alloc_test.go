package pipe

import (
	"testing"

	"junicon/internal/core"
)

// TestBatchedRefillAllocLean guards the hop's per-value allocation budget
// with the run capped: draining interned-range integers must stay near zero
// allocations per value (the run buffer is allocated once per producer
// generation and reused by every refill).
func TestBatchedRefillAllocLean(t *testing.T) {
	const n = 1024
	allocs := testing.AllocsPerRun(5, func() {
		p := FromGenBatched(core.IntRange(1, n), 64, 64)
		for {
			if _, ok := p.Next(); !ok {
				break
			}
		}
	})
	if perValue := allocs / n; perValue > 0.2 {
		t.Fatalf("batched refill: %.3f allocs/value (%v total), want <= 0.2", perValue, allocs)
	}
}

// TestPlainPipeAllocLean is the same guard with the run at its default.
func TestPlainPipeAllocLean(t *testing.T) {
	const n = 1024
	allocs := testing.AllocsPerRun(5, func() {
		p := FromGen(core.IntRange(1, n), 64)
		for {
			if _, ok := p.Next(); !ok {
				break
			}
		}
	})
	if perValue := allocs / n; perValue > 0.2 {
		t.Fatalf("plain pipe: %.3f allocs/value (%v total), want <= 0.2", perValue, allocs)
	}
}

// TestRefreshedPipeKeepsDirectLoop: the proxy Refresh returns over a FromGen
// pipe's source owns that source as the original did, so its producer runs
// the same direct generator loop — not the Step path with its per-value
// telemetry and inspection checks — within the same allocation budget.
func TestRefreshedPipeKeepsDirectLoop(t *testing.T) {
	const n = 1024
	if fresh := FromGen(core.IntRange(1, n), 64).Refresh().(*Pipe); fresh.own == nil {
		t.Fatal("Refresh dropped own: the refreshed producer takes the Step path")
	}
	allocs := testing.AllocsPerRun(5, func() {
		p := FromGen(core.IntRange(1, n), 64).Refresh().(*Pipe)
		for {
			if _, ok := p.Next(); !ok {
				break
			}
		}
	})
	if perValue := allocs / n; perValue > 0.2 {
		t.Fatalf("refreshed pipe: %.3f allocs/value (%v total), want <= 0.2", perValue, allocs)
	}
}
