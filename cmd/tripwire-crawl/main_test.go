package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestInvalidRange: a range that starts past the last site is refused with
// exit code 2, like the other invalid ranges, and prints no report.
func TestInvalidRange(t *testing.T) {
	for _, args := range [][]string{
		{"-sites", "100", "-from", "200", "-to", "300"},
		{"-from", "0"},
		{"-from", "20", "-to", "10"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "invalid rank range") {
			t.Errorf("%v: stderr %q does not name the range", args, stderr.String())
		}
	}
}

// TestWorkerCountInvariance: a seed-42 crawl of a 400-site web prints the
// same per-site lines and distribution at 1 and 4 workers; only the
// Crawled line, which names the worker count and elapsed time, differs.
func TestWorkerCountInvariance(t *testing.T) {
	crawl := func(workers string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := []string{"-sites", "400", "-to", "400", "-seed", "42", "-v", "-workers", workers}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d: %s", workers, code, stderr.String())
		}
		var kept []string
		crawled := 0
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "Crawled 400 sites (ranks 1..400) with "+workers+" workers") {
				crawled++
				continue
			}
			kept = append(kept, line)
		}
		if crawled != 1 {
			t.Fatalf("-workers %s: %d Crawled lines for ranks 1..400 in:\n%s", workers, crawled, stdout.String())
		}
		return strings.Join(kept, "\n")
	}
	serial, parallel := crawl("1"), crawl("4")
	if serial != parallel {
		t.Fatalf("output differs between -workers 1 and -workers 4:\n%s\n---\n%s", serial, parallel)
	}
	if got := strings.Count(serial, " rank="); got != 400 {
		t.Fatalf("%d per-site lines, want 400", got)
	}
	if !strings.Contains(serial, "OK submission") {
		t.Fatalf("no distribution in output:\n%s", serial)
	}
}
