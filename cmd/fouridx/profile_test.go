package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfiles checks that both profiles land as non-empty files,
// that empty paths are accepted, and that an unwritable path errors.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}

	stop, err = startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	if _, err := startProfiles(filepath.Join(dir, "missing", "cpu.out"), ""); err == nil {
		t.Error("CPU profile into a missing directory: want an error")
	}
	stop, err = startProfiles("", filepath.Join(dir, "missing", "mem.out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("heap profile into a missing directory: want an error")
	}
}

// TestTraceProfiles runs the trace subcommand with both profile flags
// (the flags bench shares through profileFlags) and checks that both
// profiles land as non-empty files beside the trace.
func TestTraceProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	runTrace([]string{"-n", "8", "-procs", "2", "-o", filepath.Join(dir, "trace.json"),
		"-cpuprofile", cpu, "-memprofile", mem})
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
