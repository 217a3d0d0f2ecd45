package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestExploreWritesProfiles: -cpuprofile and -memprofile leave gzipped
// pprof protobufs that carry sample types and a string table.
func TestExploreWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code := runExplore([]string{"-case", "SO-17894000", "-runs", "8", "-workers", "1",
		"-ndjson", filepath.Join(dir, "runs.ndjson"), "-cpuprofile", cpu, "-memprofile", mem}); code != exitOK {
		t.Fatalf("explore exit code = %d, want %d", code, exitOK)
	}
	for _, path := range []string{cpu, mem} {
		fields, err := profileFields(path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		// Profile fields 1 (sample_type) and 6 (string_table).
		if !fields[1] || !fields[6] {
			t.Fatalf("%s: profile lacks sample types or string table (fields %v)", filepath.Base(path), fields)
		}
	}
}

// TestExploreWritesExecTrace: -exectrace leaves a non-empty runtime
// execution trace, recognisable by the header go tool trace expects.
func TestExploreWritesExecTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exec.trace")
	if code := runExplore([]string{"-case", "SO-17894000", "-runs", "8", "-workers", "1",
		"-ndjson", filepath.Join(dir, "runs.ndjson"), "-exectrace", path}); code != exitOK {
		t.Fatalf("explore exit code = %d, want %d", code, exitOK)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("go 1.")) || len(b) < 64 {
		t.Fatalf("execution trace is %d bytes starting %q, want a go trace header and events", len(b), b[:min(len(b), 16)])
	}
}

// profileFields gunzips a pprof profile and returns the field numbers
// of its top-level protobuf message, failing on malformed input.
func profileFields(path string) (map[uint64]bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, errors.New("empty profile")
	}
	errBad := errors.New("malformed protobuf")
	fields := make(map[uint64]bool)
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBad
		}
		b = b[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, errBad
			}
		case 1: // fixed64
			n = 8
		case 2: // length-delimited
			l, m := binary.Uvarint(b)
			if m <= 0 || l > uint64(len(b)-m) {
				return nil, errBad
			}
			n = m + int(l)
		case 5: // fixed32
			n = 4
		default:
			return nil, errBad
		}
		if n > len(b) {
			return nil, errBad
		}
		b = b[n:]
		fields[key>>3] = true
	}
	return fields, nil
}
