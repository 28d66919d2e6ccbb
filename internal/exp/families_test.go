package exp

import (
	"reflect"
	"testing"
)

// familyOptions are the two option sets cmd/experiments builds by default:
// the full grid and -quick (levels thinned, repetitions clamped to 2).
var familyOptions = map[string]Options{
	"full":  {SizesGB: []int{20, 100}, Levels: ConcurrencyLevels(32, 1), Reps: 5, Profiles: true, Contents: true},
	"quick": {Quick: true, SizesGB: []int{20, 100}, Levels: []int{1, 4, 8, 16, 32}, Reps: 2, Profiles: true, Contents: true},
}

// sectionKeys lists the keys of the sections the selected families build.
func sectionKeys(o Options, selected func(Family) bool) []string {
	var keys []string
	for _, f := range Families {
		if selected(f) {
			for _, s := range f.Sections(o) {
				keys = append(keys, s.Key)
			}
		}
	}
	return keys
}

// TestFamiliesDefaultSelection pins the default (-all) report's sections and
// their order, and checks each opt-in family adds only its own section.
func TestFamiliesDefaultSelection(t *testing.T) {
	want := []string{"exp1-20gb", "exp1-100gb", "exp2", "exp3", "exp4", "fig8", "ablations"}
	for name, o := range familyOptions {
		if got := sectionKeys(o, func(f Family) bool { return f.InAll }); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: default sections %v, want %v", name, got, want)
		}
		for _, flag := range []string{"policies", "writebacks", "devices", "ffwd"} {
			got := sectionKeys(o, func(f Family) bool { return f.Flag == flag })
			if !reflect.DeepEqual(got, []string{flag}) {
				t.Errorf("%s: -%s alone builds sections %v, want [%s]", name, flag, got, flag)
			}
		}
	}
}

// TestFamiliesStampSectionKeys checks that every cell of every family is
// stamped with its own section's key, which the emitter routes results by,
// and that no two sections share a key.
func TestFamiliesStampSectionKeys(t *testing.T) {
	for name, o := range familyOptions {
		keys := map[string]bool{}
		for _, f := range Families {
			for _, s := range f.Sections(o) {
				if keys[s.Key] {
					t.Errorf("%s: section key %q repeated", name, s.Key)
				}
				keys[s.Key] = true
				if len(s.Specs) == 0 {
					t.Errorf("%s: section %s has no cells", name, s.Key)
				}
				for _, sp := range s.Specs {
					if sp.Coord.Section != s.Key {
						t.Errorf("%s: section %s has cell %s stamped %q", name, s.Key, sp.Label, sp.Coord.Section)
					}
				}
			}
		}
	}
}
