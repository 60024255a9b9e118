package main

// goldenSeed is the workload seed whose outputs are pinned.
const goldenSeed = 1

// golden pins, for goldenSeed, each loop lap's result digest (lapDigest:
// MAE, frames, crash, per-sector MAE, settings used and, on loop-cnn,
// the classifiers' agreement counts) and the campaign grid's results
// digest (resultsDigest), which the fabric must reproduce.
var golden = map[string]string{
	"loop-robust": "df627c17d996f127",
	"loop-cnn":    "cd6a0b54645c69cc",
	"campaign":    "179dd0a5f672bcc7",
}

// golden returns the pinned digest for key, or "" when the run's outputs
// are not pinned (another seed, or a smoke-test size).
func (o options) golden(key string) string {
	if o.seed != goldenSeed || o.small {
		return ""
	}
	return golden[key]
}
