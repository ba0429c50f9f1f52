//! The variable-lifecycle acceptance gate: with per-step reclamation
//! enabled, every *simulated* quantity of the fig8 smoke sweep — execution
//! time, congestion, message counts, per-phase statistics — must be
//! bit-identical to a no-reclamation run, for all five strategies. Frees are
//! pure bookkeeping: they cost no simulated time and send no messages; only
//! the live-variable peak (the footprint of the protocol state) may differ.

use dm_apps::barnes_hut::BhParams;
use dm_bench::barnes_hut_shapes;
use dm_bench::bh_exp::point_job;

#[test]
fn fig8_smoke_quantities_are_bit_identical_with_and_without_reclamation() {
    // The fig8 smoke tier's first sweep point (4×4 mesh, 192 bodies, 2 time
    // steps), run for every strategy of the figure.
    let params_on = BhParams {
        timesteps: 2,
        warmup_steps: 1,
        ..BhParams::new(192)
    };
    let params_off = BhParams {
        reclaim: false,
        ..params_on
    };
    for (name, strategy) in barnes_hut_shapes() {
        let run = |params| point_job((4, 4), name.clone(), strategy, params, 0x5EED).call();
        let (on, off) = (run(params_on), run(params_off));
        assert_eq!(on.congestion_msgs, off.congestion_msgs, "{name}");
        assert_eq!(on.exec_time_ns, off.exec_time_ns, "{name}");
        assert_eq!(
            on.tree_build_congestion_msgs, off.tree_build_congestion_msgs,
            "{name}"
        );
        assert_eq!(on.tree_build_time_ns, off.tree_build_time_ns, "{name}");
        assert_eq!(
            on.force_congestion_msgs, off.force_congestion_msgs,
            "{name}"
        );
        assert_eq!(on.force_time_ns, off.force_time_ns, "{name}");
        assert_eq!(on.force_compute_ns, off.force_compute_ns, "{name}");
        assert_eq!(on.interactions, off.interactions, "{name}");
        // Reclamation is observable: the reclaim-on peak is strictly below
        // the leaky one (the second step's tree reuses the first's slots).
        assert!(
            on.live_vars_peak < off.live_vars_peak,
            "{name}: {} !< {}",
            on.live_vars_peak,
            off.live_vars_peak
        );
    }
}
