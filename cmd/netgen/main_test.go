package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunProfileStats(t *testing.T) {
	if err := run("b11/0", false, "", 1, 0, 0, 0, 0, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustom(t *testing.T) {
	if err := run("", false, "", 3, 120, 8, 4, 4, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSuiteToDir(t *testing.T) {
	dir := t.TempDir()
	if err := run("", true, dir, 1, 0, 0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 24 {
		t.Fatalf("wrote %d dies, want the 24 Table II dies", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "b18_Die1.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "TSV_IN(") {
		t.Error("written die lacks TSV pads")
	}
}

func TestRunSuiteStats(t *testing.T) {
	if err := run("", true, "", 1, 0, 0, 0, 0, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunProfileWrite(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "die.bench")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	err = run("b11/0", false, "", 1, 0, 0, 0, 0, false)
	os.Stdout = old
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "TSV_IN(") {
		t.Error("written die lacks TSV pads")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", false, "", 1, 0, 0, 0, 0, false); err == nil {
		t.Error("no mode selected must error")
	}
	if err := run("b11", false, "", 1, 0, 0, 0, 0, false); err == nil {
		t.Error("malformed profile must error")
	}
	if err := run("b99/0", false, "", 1, 0, 0, 0, 0, false); err == nil {
		t.Error("unknown circuit must error")
	}
	if err := run("", true, "", 1, 0, 0, 0, 0, false); err == nil {
		t.Error("-suite without -dir must error")
	}
}
