//! Schema gate for the `row!` declarations: every row, sweep-meta and
//! sidecar-header type must survive write → parse → rebuild field by field
//! (the resume invariant), in the declared field order (the byte-identity
//! invariant of sidecars, `--json` rows and `BENCH_*.json` snapshots).

use dm_bench::bh_exp::{BhRow, SweepMeta};
use dm_bench::bitonic_exp::BitonicRow;
use dm_bench::fault_exp::{FaultMeta, FaultRow};
use dm_bench::json::{self, FromJson, ToJson};
use dm_bench::kv_exp::{KvMeta, KvRow};
use dm_bench::matmul_exp::MatmulRow;
use dm_bench::stream::SidecarHeader;
use dm_bench::topo_exp::{TopoMeta, TopoRow};
use dm_bench::Sweep;
use std::fmt::Debug;

/// Rebuild a `T` from its JSON text and check both directions: the text is
/// reproduced byte for byte (names, order, number formatting), and a second
/// trip through the writer and parser yields the same value field by field
/// (`Debug` equality, so a `NaN` equals a `NaN`).
fn round_trip<T: ToJson + FromJson + Debug>(text: &str) -> T {
    let row = T::from_json(&json::parse(text).expect("sample parses")).expect("sample decodes");
    assert_eq!(row.to_json(), text);
    let back = T::from_json(&json::parse(&row.to_json()).unwrap()).unwrap();
    assert_eq!(format!("{back:?}"), format!("{row:?}"));
    row
}

#[test]
fn every_row_type_round_trips_field_by_field() {
    let bh: BhRow = round_trip(
        r#"{"strategy":"fixed home","mesh":[16,32],"n_bodies":2000,"congestion_msgs":17952,"exec_time_ns":20918805000,"tree_build_congestion_msgs":4371,"tree_build_time_ns":2885467000,"force_congestion_msgs":5254,"force_time_ns":9953209000,"force_compute_ns":149450000,"interactions":1027663,"live_vars_peak":3258,"host_ms":365.571951}"#,
    );
    assert_eq!(bh.mesh, (16, 32));
    assert_eq!(bh.host_ms, 365.571951);
    // A pre-assembly ratio placeholder: NaN is written as null and comes
    // back as NaN.
    let matmul: MatmulRow = round_trip(
        r#"{"strategy":"4-ary access tree","mesh_side":8,"block_ints":256,"congestion_bytes":9007199254740993,"comm_time_ns":5,"congestion_ratio":null,"time_ratio":null,"host_ms":0.1}"#,
    );
    assert!(matmul.congestion_ratio.is_nan() && matmul.time_ratio.is_nan());
    assert_eq!(matmul.congestion_bytes, (1 << 53) + 1);
    let bitonic: BitonicRow = round_trip(
        r#"{"strategy":"hand-optimized","mesh_side":4,"keys_per_proc":64,"congestion_bytes":10,"exec_time_ns":20,"congestion_ratio":1,"time_ratio":1,"host_ms":0}"#,
    );
    assert_eq!(bitonic.time_ratio, 1.0);
    round_trip::<TopoRow>(
        r#"{"topology":"mesh 8x8","workload":"uniform","strategy":"fixed home","nodes":64,"links":224,"diameter":14,"congestion_msgs":747,"congestion_bytes":64176,"total_msgs":16924,"exec_time_ns":391711000,"host_ms":6.2035800000000005}"#,
    );
    let fault: FaultRow = round_trip(
        r#"{"topology":"torus 4x4","workload":"barnes-hut","strategy":"4-ary access tree","scenario":"fail 1 node (restore +1ms)","strike_pct":50,"outcome":"degraded@1","congestion_msgs":1,"congestion_bytes":2,"exec_time_ns":3,"links_degraded":4,"links_failed":5,"links_healed":6,"nodes_failed":7,"nodes_restored":8,"rehome_msgs":9,"rehome_bytes":10,"locks_force_released":11,"procs_lost":12,"congestion_delta_pct":-12.5,"time_delta_pct":3.25,"host_ms":9.138145}"#,
    );
    assert_eq!((fault.strike_pct, fault.congestion_delta_pct), (50, -12.5));
    round_trip::<KvRow>(
        r#"{"topology":"fat-tree-64","workload":"zipf-0.9","churn":"on","strategy":"2-ary access tree","nodes":64,"requests":4096,"local_hits":193,"bytes_moved":1303456,"p50_ns":2097152,"p99_ns":8388608,"repl_high_water":17,"exec_time_ns":303457000,"host_ms":7.041762}"#,
    );
    round_trip::<SweepMeta>(
        r#"{"scale":"default","timesteps":3,"warmup_steps":1,"theta":0.5,"seed":24301}"#,
    );
    round_trip::<TopoMeta>(
        r#"{"scale":"smoke","nodes":16,"uniform_ops":24,"write_percent":30,"bh_bodies":192,"bh_timesteps":2,"seed":1}"#,
    );
    let meta: FaultMeta = round_trip(
        "{\"scale\":\"paper\",\"nodes\":256,\"uniform_ops\":128,\"bh_bodies\":10000,\
         \"bh_timesteps\":2,\"scenarios\":7,\"strikes\":[0,\n 50],\"seed\":24301}",
    );
    assert_eq!(meta.strikes, [0, 50]);
    round_trip::<KvMeta>(
        "{\"scale\":\"default\",\"nodes\":64,\"n_keys\":512,\"ops_per_client\":64,\
         \"write_percent\":10,\"val_bytes\":256,\"migrate_at\":[25,\n 50,\n 75],\
         \"churn_sessions\":3,\"churn_idle_us\":2000,\"seed\":24301}",
    );
    for (shard, text) in [(None, "null"), (Some((3, 8)), "[3,8]")] {
        let header: SidecarHeader = round_trip(&format!(
            r#"{{"sweep":"bh","scale":"mega","seed":42,"total_jobs":100,"shard":{text}}}"#
        ));
        assert_eq!(header.shard, shard);
    }
}

/// The committed snapshot of `fig` must be exactly what today's row and meta
/// declarations write: `{"fig":…,"tier":…,"seed":…,"payload":{"meta":…,
/// "rows":[…]}}` with the payload a serialised [`Sweep`].
fn assert_snapshot_is_a_sweep<M, R>(fig: &str)
where
    M: ToJson + FromJson,
    R: ToJson + FromJson,
{
    let path = format!("{}/../../BENCH_{fig}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let payload = json::parse(&text).unwrap();
    let payload = payload.get("payload").expect("snapshot has a payload");
    let sweep: Sweep<M, R> = Sweep {
        meta: json::field(payload, "meta").unwrap(),
        rows: json::field(payload, "rows").unwrap(),
    };
    let prefix = format!(r#"{{"fig":"{fig}","tier":"default","seed":24301,"payload":"#);
    assert_eq!(text, format!("{prefix}{}}}", sweep.to_json()), "{fig}");
    assert!(text.starts_with(&format!("{prefix}{{\"meta\":{{\"scale\":\"default\",")));
}

#[test]
fn sweeps_serialise_as_the_committed_snapshot_payloads() {
    assert_snapshot_is_a_sweep::<SweepMeta, BhRow>("fig8");
    assert_snapshot_is_a_sweep::<TopoMeta, TopoRow>("fig12");
    assert_snapshot_is_a_sweep::<FaultMeta, FaultRow>("fig13");
    assert_snapshot_is_a_sweep::<KvMeta, KvRow>("fig14");
}
