package swarm

import (
	"math/rand"
	"testing"
)

// TestPickPiece is the shared piece picker on its own: the rarest
// eligible piece wins, ties are split uniformly by one draw from rng,
// the random ablation makes every eligible piece a tie, and with nothing
// eligible it returns -1 and draws nothing.
func TestPickPiece(t *testing.T) {
	all := func(int) bool { return true }
	cases := []struct {
		name     string
		copies   []int
		eligible func(int) bool
		random   bool
		want     []int // the pieces it may return, each about equally often
	}{
		{name: "rarest wins", copies: []int{3, 1, 2}, eligible: all, want: []int{1}},
		{name: "ineligible rarest skipped", copies: []int{3, 0, 2}, eligible: func(i int) bool { return i != 1 }, want: []int{2}},
		{name: "ties spread", copies: []int{1, 0, 0, 0, 5}, eligible: all, want: []int{1, 2, 3}},
		{name: "random ablation", copies: []int{0, 9, 9, 4}, eligible: func(i int) bool { return i != 3 }, random: true, want: []int{0, 1, 2}},
		{name: "nothing eligible", copies: []int{0, 0}, eligible: func(int) bool { return false }, want: []int{-1}},
	}
	const draws = 3000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng, twin := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			seen := map[int]int{}
			for range draws {
				got := PickPiece(len(tc.copies), tc.eligible, tc.copies, tc.random, rng)
				seen[got]++
				// The pick is want[k] for one draw of Intn(len(want)), so
				// the simulator's rng stream is what it was before the
				// picker was shared (the figures' goldens rest on it).
				if got >= 0 && got != tc.want[twin.Intn(len(tc.want))] {
					t.Fatalf("picked %d, not the tie the same rng draw names", got)
				}
			}
			if rng.Int63() != twin.Int63() {
				t.Fatal("the picker drew a different number of values than one per tie-break")
			}
			for _, p := range tc.want {
				if seen[p] < draws/len(tc.want)*3/4 {
					t.Errorf("piece %d picked %d of %d times (all: %v), want about %d", p, seen[p], draws, seen, draws/len(tc.want))
				}
			}
			if len(seen) != len(tc.want) {
				t.Errorf("picked %v, want only %v", seen, tc.want)
			}
		})
	}
}
