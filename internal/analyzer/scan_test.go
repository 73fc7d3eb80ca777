package analyzer

import (
	"testing"
	"time"
)

// TestBudgetKey: every budget that can change a scan's output moves the
// key, the worker count does not, and nil keys like the defaults
// spelled out.
func TestBudgetKey(t *testing.T) {
	t.Parallel()
	base := DefaultScanOptions().BudgetKey()
	if got := (*ScanOptions)(nil).BudgetKey(); got != base {
		t.Errorf("nil key %q, want the defaults' %q", got, base)
	}
	if got := (&ScanOptions{FileWorkers: 7}).BudgetKey(); got != base {
		t.Errorf("FileWorkers moved the key: %q vs %q", got, base)
	}
	for name, o := range map[string]*ScanOptions{
		"deadline":        {Deadline: time.Second},
		"max_parse_depth": {MaxParseDepth: 8},
		"max_steps":       {MaxSteps: 100},
		"max_findings":    {MaxFindings: 3},
		"file_time_slice": {FileTimeSlice: time.Millisecond},
	} {
		if o.BudgetKey() == base {
			t.Errorf("%s does not move the key %q", name, base)
		}
	}
}
