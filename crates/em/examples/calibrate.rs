//! Calibration helper: prints the emf RMS per coil for the AES workload.
use emtrust_aes::netlist::run_encryption;
use emtrust_aes::AesHarness;
use emtrust_em::{Coil, EmSensor};
use emtrust_layout::floorplan::{Die, Floorplan};
use emtrust_layout::probe::ExternalProbe;
use emtrust_layout::spiral::SpiralSensor;
use emtrust_netlist::library::Library;
use emtrust_power::{ClockConfig, CurrentModel};

fn main() {
    let aes = AesHarness::new();
    let lib = Library::generic_180nm();
    let die = Die::for_netlist(aes.netlist(), &lib, 0.7).unwrap();
    println!("die: {} um", die.width_um());
    let fp = Floorplan::place(aes.netlist(), &lib, die).unwrap();
    let model = CurrentModel::new(lib.clone(), ClockConfig::reference());
    let onchip: Coil = SpiralSensor::for_die(die).unwrap().into();
    let external: Coil = ExternalProbe::over_die(die).into();
    let mut sim = aes.simulator().unwrap();
    sim.start_recording();
    for i in 0..20u8 {
        let _ = run_encryption(&mut sim, aes.ports(), [i; 16], [i ^ 0x5a; 16]);
    }
    let act = sim.take_recording();
    for coil in [onchip, external] {
        let s = EmSensor::new(coil, aes.netlist(), &fp, model.clone()).unwrap();
        let bins = s.charge_table().bin_trace(&act, 1);
        let emf = s.emf(&bins, None, &[]).unwrap();
        println!("{}: signal RMS = {:.4e} V", s.coil().name(), emf.rms_v());
    }
}
