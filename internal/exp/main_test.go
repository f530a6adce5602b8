package exp

import (
	"math"
	"os"
	"runtime/debug"
	"testing"
)

// testMemoryLimit is the soft heap limit of this package's test binary.
// TestCaseStudyQuick runs MPPm on 100 kb fragments and holds several GB
// of heap at its peak. Under the default GC pacing (GOGC=100) a
// collection at that size sets the next heap goal at about twice the
// live heap, which next to the other test binaries of a `go test ./...`
// run can exhaust an 8 GB machine. The limit makes the collector run
// earlier instead; no input and no assertion changes. On a 2-core
// linux/amd64 VM the package's tests peaked at 5.3 GB RSS without the
// limit and 4.0 GB with it, in the same wall time.
const testMemoryLimit = 3 << 30

// TestMain applies testMemoryLimit unless GOMEMLIMIT already set one.
func TestMain(m *testing.M) {
	if debug.SetMemoryLimit(-1) == math.MaxInt64 {
		debug.SetMemoryLimit(testMemoryLimit)
	}
	os.Exit(m.Run())
}
