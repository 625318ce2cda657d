package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestSmokeShortRun runs main in-process over a short horizon. An
// error path would os.Exit non-zero and fail the binary; returning is
// exit 0.
func TestSmokeShortRun(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout, args, flags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, args, flags }()
	flag.CommandLine = flag.NewFlagSet("swarmsim", flag.ExitOnError) // main registers its flags per run
	os.Stdout, os.Args = out, []string{"swarmsim", "-k", "2", "-horizon", "300", "-drain", "3000", "-timeline"}
	main()

	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bundle K=2, aggregate λ=", "content availability:", "peer timeline"} {
		if !strings.Contains(string(got), want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
