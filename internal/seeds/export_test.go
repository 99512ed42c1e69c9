package seeds

// For the tests in package seeds_test, which need the workload generator
// (it imports seeds).
var (
	RefReadFile = refReadFile
	DiffRecords = diffRecords
)
