package xpdld

import (
	"os"
	"testing"
)

// TestMain removes the daemon binary that daemonBinary builds once per
// test process.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}
