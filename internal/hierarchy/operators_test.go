package hierarchy

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/flags"
)

// operatorGoldens pins the ID-keyed search operators to the name-keyed
// ones they replaced. Each row was recorded with the name-keyed
// RandomizeFlags, Crossover and MutateFlag walking the sorted active flag
// names of one branch combination (or, for "flat", every tunable name):
// the first 8 bytes of SHA-256 over the child's Key(), and the RNG's next
// Int63 after the operators ran. Equal rows mean the new operators make
// the same choices and consume the RNG identically, so fixed-seed sessions
// stay byte-identical.
var operatorGoldens = []struct {
	set    string
	seed   int64
	digest string
	next   int64
}{
	{"serial+classic", 1, "1048acab323f9866", 7550860854401488088},
	{"serial+classic", 2, "4f08e26672293c31", 5932471442993518045},
	{"serial+classic", 3, "3e8ab628e50bf459", 4491143166088923158},
	{"serial+tiered", 1, "a6e7cc1b53db2508", 2702833029073258767},
	{"serial+tiered", 2, "e9b5b738e9672b58", 6134273882598361508},
	{"serial+tiered", 3, "3e20a55bd6ecd6f6", 2338211345152780587},
	{"parallel+classic", 1, "7a88fe3e5e44c058", 7730245050963065791},
	{"parallel+classic", 2, "64cd5dc69ed16132", 4383845666859960684},
	{"parallel+classic", 3, "0d70e4527e9590e8", 7730375479036942734},
	{"parallel+tiered", 1, "7202576a367e9943", 6773655007084040456},
	{"parallel+tiered", 2, "74e073ad7ae5bc0b", 2354599742780504161},
	{"parallel+tiered", 3, "3e3ca823a86eb191", 5484673089222352726},
	{"cms+classic", 1, "4bc7bde5b70a6cdf", 3547462986563498909},
	{"cms+classic", 2, "966fdc0afb09fc42", 3134242267432826591},
	{"cms+classic", 3, "fba454cdc0e5ac56", 6969332884153367840},
	{"cms+tiered", 1, "2b35af8fa7436cff", 5179968881451713133},
	{"cms+tiered", 2, "b06111f5bcc14cf9", 4384705679984822665},
	{"cms+tiered", 3, "bb97def18b1193c0", 6969332884153367840},
	{"g1+classic", 1, "29d1147ed8bb6682", 3403109207472536173},
	{"g1+classic", 2, "d81295857ecd679d", 6557634967838948466},
	{"g1+classic", 3, "920bb4edaffb270f", 4725762577357395468},
	{"g1+tiered", 1, "ba1814e13c443380", 6307332587790391146},
	{"g1+tiered", 2, "47dcdbd988a00f37", 5118596842043939093},
	{"g1+tiered", 3, "37679f8f582a84d6", 6221299927158921951},
	{"flat", 1, "29e65beda7f5216c", 7467037822097790697},
	{"flat", 2, "dfe8be1bff49cb27", 7225361782614520296},
	{"flat", 3, "9c8ef584e9014c1d", 4395867094960356688},
}

func TestOperatorsMatchNameKeyedGoldens(t *testing.T) {
	reg := flags.NewRegistry()
	tree := Build(reg)
	type flagSet struct {
		base *flags.Config
		ids  []flags.ID
	}
	sets := map[string]flagSet{"flat": {flags.NewConfig(reg), reg.TunableIDs()}}
	for _, combo := range enumerateBranchCombos(tree.Choices()) {
		c := flags.NewConfig(reg)
		label := ""
		for i, b := range combo {
			b.Apply(c)
			if i > 0 {
				label += "+"
			}
			label += b.Name
		}
		sets[label] = flagSet{c, tree.ActiveFlags(c)}
	}
	for _, g := range operatorGoldens {
		s, ok := sets[g.set]
		if !ok {
			t.Fatalf("no flag set %q", g.set)
		}
		rng := rand.New(rand.NewSource(g.seed))
		a := s.base.Clone()
		flags.RandomizeFlags(a, s.ids, rng)
		b := s.base.Clone()
		flags.RandomizeFlags(b, s.ids, rng)
		child := flags.Crossover(a, b, s.ids, rng)
		for i := 0; i < 3; i++ {
			flags.MutateFlag(child, s.ids[rng.Intn(len(s.ids))], rng)
		}
		sum := sha256.Sum256([]byte(child.Key()))
		if got := fmt.Sprintf("%x", sum[:8]); got != g.digest {
			t.Errorf("%s seed %d: child key digest %s, want %s", g.set, g.seed, got, g.digest)
		}
		if got := rng.Int63(); got != g.next {
			t.Errorf("%s seed %d: next draw %d, want %d", g.set, g.seed, got, g.next)
		}
	}
}
