//go:build stress

package exec

import (
	"math/rand"
	"testing"
	"time"
)

// TestJoinOracleRandomSeed is the seed-randomized twin of TestJoinOracle:
// each `go test -tags stress` run draws fresh build and probe inputs.
func TestJoinOracleRandomSeed(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	runJoinOracle(t, rand.New(rand.NewSource(seed)))
}
