package dataplane

// Test-only exports for the external tests in package dataplane_test.
var (
	LabEngine        = labEngine
	MixedModesEngine = mixedModesEngine
	DeliveredKeys    = deliveredKeys
)
