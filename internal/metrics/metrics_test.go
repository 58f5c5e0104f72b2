package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestAccuracy(t *testing.T) {
	var a Accuracy
	a.Observe(10, 10) // exact
	a.Observe(14, 10) // +4, rel 0.4
	a.Observe(2, 0)   // +2 over zero truth, rel 2 (den clamped to 1)
	if a.N() != 3 {
		t.Fatalf("N = %d", a.N())
	}
	if got := a.AAE(); got != 2.0 {
		t.Errorf("AAE = %g, want 2", got)
	}
	if got := a.ARE(); got < 0.799 || got > 0.801 {
		t.Errorf("ARE = %g, want 0.8", got)
	}
	if a.Undercounts() != 0 {
		t.Errorf("Undercounts = %d", a.Undercounts())
	}
	a.Observe(5, 9)
	if a.Undercounts() != 1 {
		t.Errorf("Undercounts = %d, want 1", a.Undercounts())
	}
}

func TestAccuracyEmpty(t *testing.T) {
	var a Accuracy
	if a.AAE() != 0 || a.ARE() != 0 {
		t.Error("empty accuracy should be zero")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Errorf("Throughput = %g", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Errorf("zero-elapsed throughput = %g", got)
	}
}

func TestFormatters(t *testing.T) {
	if got := FormatEPS(2_500_000); got != "2.50M ops/s" {
		t.Errorf("FormatEPS = %q", got)
	}
	if got := FormatEPS(2_500); got != "2.50K ops/s" {
		t.Errorf("FormatEPS = %q", got)
	}
	if got := FormatBytes(3 * 1024 * 1024); got != "3.00 MB" {
		t.Errorf("FormatBytes = %q", got)
	}
	if got := FormatBytes(512); got != "512 B" {
		t.Errorf("FormatBytes = %q", got)
	}
	if got := FormatFloat(0); got != "0" {
		t.Errorf("FormatFloat(0) = %q", got)
	}
	if got := FormatFloat(1234567); !strings.Contains(got, "e+") {
		t.Errorf("FormatFloat(large) = %q", got)
	}
	if got := FormatFloat(0.25); got != "0.2500" {
		t.Errorf("FormatFloat = %q", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("structure", "AAE", "latency")
	tb.AddRow("HIGGS", "0.001", "35µs")
	tb.AddRow("Horae", "12.5", "2.1ms")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "structure") {
		t.Errorf("header line %q", lines[0])
	}
	if !strings.Contains(lines[2], "HIGGS") || !strings.Contains(lines[3], "Horae") {
		t.Errorf("rows missing:\n%s", out)
	}
}
