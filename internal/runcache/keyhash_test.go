package runcache

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

// excludedKeyFields are the sim.Config fields that must NOT affect a
// cell's content address: parallelism knobs cannot change results
// (DESIGN.md §4.6), so cells differing only there must share one cache
// entry. Every other field must change the key — this is the permanent
// guard against the class of bug where a new result-affecting field
// (Mode was the instance that motivated it) silently reuses cached
// results computed under a different configuration.
var excludedKeyFields = map[string]bool{
	"Workers": true,
	"Pool":    true,
}

// TestKeyCoversEveryConfigField walks every leaf field of sim.Config by
// reflection, perturbs it, and requires the cell key to change (or, for
// the exclusion list, to stay identical). A sim.Config field added
// without extending hashConfig or excludedKeyFields fails here.
func TestKeyCoversEveryConfigField(t *testing.T) {
	base := sim.DefaultConfig()
	keyFor := func(cfg sim.Config) Key {
		return KeyOf(runner.Request{Machine: "A", Workload: "CG.D", Policy: "THP", Cfg: &cfg})
	}
	baseKey := keyFor(base)
	for _, path := range leafFieldPaths(reflect.TypeOf(base), "") {
		cfg := base
		v := fieldByPath(reflect.ValueOf(&cfg).Elem(), path)
		if err := perturbField(v); err != nil {
			t.Fatalf("field %s: %v", path, err)
		}
		got := keyFor(cfg)
		if excludedKeyFields[path] {
			if got != baseKey {
				t.Errorf("excluded field %s changed the cell key: parallelism must not affect content addresses", path)
			}
			continue
		}
		if got == baseKey {
			t.Errorf("field %s does not affect the cell key: extend hashConfig (or excludedKeyFields if it provably cannot change results)", path)
		}
	}
}

// leafFieldPaths enumerates dotted paths to every leaf (non-struct)
// field, descending into nested structs like sim.Config.IBS.
func leafFieldPaths(typ reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := prefix + f.Name
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFieldPaths(f.Type, name+".")...)
			continue
		}
		out = append(out, name)
	}
	return out
}

// fieldByPath resolves a dotted path on an addressable struct value.
func fieldByPath(v reflect.Value, path string) reflect.Value {
	for _, part := range strings.Split(path, ".") {
		v = v.FieldByName(part)
	}
	return v
}

// perturbField changes a field to a different, valid-enough value; the
// exact value is irrelevant, only that equal configs stop being equal.
func perturbField(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.421875)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		return &unsupportedKind{v.Kind()}
	}
	return nil
}

type unsupportedKind struct{ k reflect.Kind }

func (e *unsupportedKind) Error() string {
	return "no perturbation for kind " + e.k.String() + "; teach perturbField about it"
}

// TestModelVersionChangesEveryKey pins that sim.ModelVersion reaches
// every content address: for the default config and each single-field
// perturbation of it, a different model version yields a different
// config hash, so a store written by another model never answers.
func TestModelVersionChangesEveryKey(t *testing.T) {
	base := sim.DefaultConfig()
	cfgs := []sim.Config{base}
	for _, path := range leafFieldPaths(reflect.TypeOf(base), "") {
		cfg := base
		if err := perturbField(fieldByPath(reflect.ValueOf(&cfg).Elem(), path)); err != nil {
			t.Fatalf("field %s: %v", path, err)
		}
		cfgs = append(cfgs, cfg)
	}
	for i, cfg := range cfgs {
		if hashConfig(cfg) != hashConfigVersion(cfg, sim.ModelVersion) {
			t.Fatal("hashConfig does not hash the current sim.ModelVersion")
		}
		for _, v := range []int{sim.ModelVersion - 1, sim.ModelVersion + 1} {
			if hashConfigVersion(cfg, v) == hashConfig(cfg) {
				t.Errorf("config %d: model version %d gives the same key as version %d", i, v, sim.ModelVersion)
			}
		}
	}
}
