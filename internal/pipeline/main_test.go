package pipeline

import (
	"testing"

	"repro/internal/testkit"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a stage owns its chain server,
// its crawl stream (live or replayed from an archive) and its ingest pool,
// Run its stage goroutines, and each must be gone once Run has returned.
func TestMain(m *testing.M) { testkit.Main(m) }
