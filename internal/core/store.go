package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/hw/power"
)

// This file implements the on-watch persistence of the profiling table:
// the paper stores the profiled configurations "inside the smartwatch MCU
// memory" (§III-A). The format is a compact little-endian record per
// configuration — model names are indices into the zoo, so a 60-entry
// table costs well under 2 KiB of flash.

const storeMagic = "CHRS"
const storeVersion = 1

// SaveProfiles writes the profile table. Profiles must reference models
// present in the zoo.
func SaveProfiles(w io.Writer, zoo *Zoo, profiles []Profile) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(storeMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(storeVersion)); err != nil {
		return err
	}
	idx := map[string]uint8{}
	for i, m := range zoo.Models() {
		idx[m.Name()] = uint8(i)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(profiles))); err != nil {
		return err
	}
	for _, p := range profiles {
		si, ok1 := idx[p.Simple.Name()]
		ci, ok2 := idx[p.Complex.Name()]
		if !ok1 || !ok2 {
			return fmt.Errorf("core: profile %s references models outside the zoo", p.Name())
		}
		rec := []interface{}{
			si, ci, uint8(p.Threshold), uint8(p.Exec),
			math.Float32bits(float32(p.MAE)),
			math.Float32bits(float32(p.WatchEnergy)),
			math.Float32bits(float32(p.WatchEnergyIdle)),
			math.Float32bits(float32(p.PhoneEnergy)),
			math.Float32bits(float32(p.OffloadFraction)),
			math.Float32bits(float32(p.SimpleFraction)),
		}
		for _, v := range rec {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadProfiles reads a profile table saved by SaveProfiles, resolving
// model indices against the given zoo. The input is untrusted: a count
// larger than the zoo's configuration space, a model index outside the
// zoo or an unknown execution target is rejected with an error.
func LoadProfiles(r io.Reader, zoo *Zoo) ([]Profile, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("core: not a CHRIS profile store")
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != storeVersion {
		return nil, fmt.Errorf("core: unsupported store version %d", version)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if limit := len(zoo.EnumerateConfigs()); int64(count) > int64(limit) {
		return nil, fmt.Errorf("core: profile store holds %d profiles, the zoo has only %d configurations", count, limit)
	}
	ms := zoo.Models()
	out := make([]Profile, 0, count)
	for i := uint32(0); i < count; i++ {
		var si, ci, thr, exec uint8
		var f [6]uint32
		for _, v := range []interface{}{&si, &ci, &thr, &exec, &f[0], &f[1], &f[2], &f[3], &f[4], &f[5]} {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return nil, err
			}
		}
		if int(si) >= len(ms) || int(ci) >= len(ms) {
			return nil, fmt.Errorf("core: profile %d references model %d/%d outside the zoo", i, si, ci)
		}
		if e := Execution(exec); e != Local && e != Hybrid {
			return nil, fmt.Errorf("core: profile %d has unknown execution target %d", i, exec)
		}
		out = append(out, Profile{
			Config: Config{
				Simple:    ms[si],
				Complex:   ms[ci],
				Threshold: int(thr),
				Exec:      Execution(exec),
			},
			MAE:             float64(math.Float32frombits(f[0])),
			WatchEnergy:     energyFromBits(f[1]),
			WatchEnergyIdle: energyFromBits(f[2]),
			PhoneEnergy:     energyFromBits(f[3]),
			OffloadFraction: float64(math.Float32frombits(f[4])),
			SimpleFraction:  float64(math.Float32frombits(f[5])),
		})
	}
	return out, nil
}

func energyFromBits(bits uint32) power.Energy {
	return power.Energy(math.Float32frombits(bits))
}
