package cli

import (
	"reflect"
	"strings"
	"testing"

	"storeatomicity/internal/core"
)

func TestApplyDedupMem(t *testing.T) {
	cases := []struct {
		spec string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"off", 0, false},
		{"0", 0, false},
		{"4096", 4096, false},
		{"64k", 64 << 10, false},
		{"256M", 256 << 20, false},
		{" 2g ", 2 << 30, false},
		{"-1", 0, true},
		{"64kb", 0, true},
		{"lots", 0, true},
	}
	for _, c := range cases {
		var opts core.Options
		err := ApplyDedupMem(&opts, c.spec)
		if (err != nil) != c.err {
			t.Errorf("ApplyDedupMem(%q) err = %v, want err=%v", c.spec, err, c.err)
			continue
		}
		if !c.err && opts.DedupMemBudget != c.want {
			t.Errorf("ApplyDedupMem(%q) = %d, want %d", c.spec, opts.DedupMemBudget, c.want)
		}
	}
}

// TestApplyPrune: the removed -prune grammar survives only for callers
// that still name the production configuration; it accepts that
// configuration, refuses every layer subset by naming the removed flag,
// and never touches the options.
func TestApplyPrune(t *testing.T) {
	for _, spec := range []string{"", "all", PruneAll, " all "} {
		var opts core.Options
		if err := ApplyPrune(&opts, spec); err != nil {
			t.Errorf("ApplyPrune(%q) = %v, want nil", spec, err)
		}
		if !reflect.DeepEqual(opts, core.Options{}) {
			t.Errorf("ApplyPrune(%q) set options: %+v", spec, opts)
		}
	}
	for _, spec := range []string{"off", "none", "closure", "closure,prefix", "symmetry"} {
		var opts core.Options
		err := ApplyPrune(&opts, spec)
		if err == nil || !strings.Contains(err.Error(), "-prune flag was removed") {
			t.Errorf("ApplyPrune(%q) = %v, want an error naming the removed -prune flag", spec, err)
		}
		if !reflect.DeepEqual(opts, core.Options{}) {
			t.Errorf("ApplyPrune(%q) set options: %+v", spec, opts)
		}
	}
}
