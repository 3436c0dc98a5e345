package main

// pins holds the SHA-256 of each workload's virtual-plane output for
// the default seed: the clean drive's trace fingerprint, the fog
// drive's chaos report, and each fleet key's served report. Any change
// to the modeled plane changes them; a host-only change never may.
var pins = map[string]string{
	"drive-clean":             "06df1007d0e143e93fc7f63505db2bebdab62bb1a4fc9684c02c2f650301d8b5",
	"drive-fog-stall":         "3d0c41cf9d4a73024ebc82aa162eb21856bd52eecac15d5eda43c57c86337407",
	"fleet-hot/crash-recover": "a3970edf7e1dd41c01d896527c4feead22d0a3aff7e02f3ab25537e3a974daad",
	"fleet-hot/camera-stall":  "6069721a59bd17ae60898a31872f01aeb62fd7ca81c02d76660ca4bb5d751873",
}
