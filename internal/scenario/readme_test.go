package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSchemaREADMECoversDoc keeps the schema tables in the chaos example's
// README in step with the document types: every json tag of Doc and of the
// *Doc types nested in it must appear there as `tag`.
func TestSchemaREADMECoversDoc(t *testing.T) {
	readme, err := os.ReadFile("../../examples/chaos/README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || !strings.HasSuffix(typ.Name(), "Doc") || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				continue
			}
			if !strings.Contains(string(readme), "`"+tag+"`") {
				t.Errorf("%s.%s: json tag %q is not in examples/chaos/README.md", typ.Name(), f.Name, tag)
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(Doc{}))
	if len(seen) < 10 {
		t.Fatalf("walked %d document types, want Doc and its nested *Doc types", len(seen))
	}
}
