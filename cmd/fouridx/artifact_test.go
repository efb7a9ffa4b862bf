package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckArtifact covers the three outcomes of the -check gate:
// identical bytes pass, a one-byte difference fails as stale, and an
// empty path fails instead of silently checking nothing.
func TestCheckArtifact(t *testing.T) {
	fresh := []byte("{\n  \"schemaVersion\": 5\n}\n")
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := os.WriteFile(path, fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkArtifact(path, "make bench", fresh); err != nil {
		t.Errorf("identical bytes: %v", err)
	}

	edited := append([]byte(nil), fresh...)
	edited[len(edited)-3] = '6'
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkArtifact(path, "make bench", fresh); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("one-byte difference: err = %v, want a stale error", err)
	}

	if err := checkArtifact("", "make bench", fresh); err == nil {
		t.Error("empty path: want an error")
	}
}
