//go:build stress

package exec

import (
	"math/rand"
	"testing"
	"time"
)

// TestWindowSpillOperatorRandomSeed is the seed-randomized twin of
// TestWindowSpillOperatorEquivalence.
func TestWindowSpillOperatorRandomSeed(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		runWindowOperatorTrial(t, rng)
	}
}

// TestWindowOracleRandomSeed is the seed-randomized twin of TestWindowOracle
// and of the comparator property: each `go test -tags stress` run draws
// fresh inputs.
func TestWindowOracleRandomSeed(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	runWindowOracle(t, rng)
	for trial := 0; trial < 20; trial++ {
		runComparatorProperty(t, rng)
	}
}
