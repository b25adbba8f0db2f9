package main

import (
	"bytes"
	"os"
	"testing"
)

// TestBuiltinsMatchGolden pins the plan printed for each built-in program,
// and checks that translating its source file with -src prints the same.
func TestBuiltinsMatchGolden(t *testing.T) {
	for _, name := range []string{"cf", "dict"} {
		want, err := os.ReadFile("testdata/" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{"", "testdata/" + name + ".go"} {
			prog, err := load(name, src)
			if err != nil {
				t.Fatalf("%s (src %q): %v", name, src, err)
			}
			var got bytes.Buffer
			if err := render(&got, prog, false); err != nil {
				t.Fatalf("%s (src %q): %v", name, src, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s (src %q) printed:\n%s\nwant:\n%s", name, src, got.Bytes(), want)
			}
		}
	}
	if _, err := load("nope", ""); err == nil {
		t.Fatal("unknown built-in program loaded")
	}
}
