package exp

// PaperReported collects the quantitative claims the paper's evaluation
// makes, for side-by-side comparison in the experiments report (report.go
// prints them next to the reproduced numbers). These are the numbers printed
// in the text; figure-only values are qualitative and are compared by shape.
type PaperReported struct {
	// Exp 1 mean absolute relative errors (%), averaged over ops/sizes.
	Exp1WrenchErr, Exp1PysimErr, Exp1CacheErr float64
	// Exp 4 mean errors (%).
	Exp4WrenchErr, Exp4CacheErr float64
	// Maximum error-reduction factor ("up to 9×", single-threaded).
	MaxErrorReduction float64
	// Fig 8 regression slopes (seconds per added application instance,
	// on the authors' machine).
	Fig8WrenchLocalSlope, Fig8CacheLocalSlope, Fig8CacheNFSSlope float64
}

// Paper returns the published values.
func Paper() PaperReported {
	return PaperReported{
		Exp1WrenchErr:        345,
		Exp1PysimErr:         46,
		Exp1CacheErr:         39,
		Exp4WrenchErr:        337,
		Exp4CacheErr:         47,
		MaxErrorReduction:    9,
		Fig8WrenchLocalSlope: 0.01,
		Fig8CacheLocalSlope:  0.05,
		Fig8CacheNFSSlope:    0.04,
	}
}
