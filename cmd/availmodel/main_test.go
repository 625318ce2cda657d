package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestSmokeDefaults runs main in-process with no flags. An error
// path would os.Exit non-zero and fail the binary; returning is exit 0.
func TestSmokeDefaults(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout, args, flags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, args, flags }()
	flag.CommandLine = flag.NewFlagSet("availmodel", flag.ExitOnError) // main registers its flags per run
	os.Stdout, os.Args = out, []string{"availmodel"}
	main()

	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"busy period E[B] (eq.9):", "optimal bundle size: K="} {
		if !strings.Contains(string(got), want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
