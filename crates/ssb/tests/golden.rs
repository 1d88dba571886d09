//! Golden fingerprints of generated SSB instances.
//!
//! Every column of every table is pinned by a 64-bit FNV-1a hash of its
//! values' little-endian bytes, at SF 0.01 (60 000 Lineorder rows) and
//! seed 42. The pins are what the one-row-at-a-time reference generator
//! (`lineorder_oracle` in `src/gen.rs`) produces, so they hold the block
//! generator to its draw-order contract (row-major, column order within a
//! row, one unit sample per cell) for every fact distribution, a planted
//! hot spot and the snowflake variant. A failure names each column that
//! moved.

use starj_engine::{ColumnData, StarSchema, Table};
use starj_ssb::{generate, generate_snowflake, FactDistribution, HotSpot, SsbConfig};

type Pins = &'static [(&'static str, u64)];

/// The dimension tables, which no fact distribution or hot spot touches.
const DIMENSIONS: Pins = &[
    ("Date.dk", 0xB641_B5B7_6B0F_0651),
    ("Date.year", 0x8FAF_D3AD_DAD0_C4F0),
    ("Date.month", 0xC5B8_E943_9666_9ECB),
    ("Date.dayofyear", 0xB104_2D39_50E1_7DA5),
    ("Customer.pk", 0xED6A_8B24_F7B4_64F1),
    ("Customer.region", 0xEA12_8652_5ECC_3004),
    ("Customer.nation", 0x0339_9EA7_1929_9BE7),
    ("Customer.city", 0xA714_4B53_931F_09C1),
    ("Customer.address", 0x0195_CFD0_484A_2557),
    ("Supplier.pk", 0x9DA0_0788_178A_DFCD),
    ("Supplier.region", 0xDC3E_A45A_F77C_B1F2),
    ("Supplier.nation", 0x31F5_34D1_2A9E_B2C0),
    ("Supplier.city", 0xF900_F441_754B_39BE),
    ("Supplier.address", 0x6083_7BE7_E0B8_8044),
    ("Part.pk", 0x923E_EA90_49BE_F505),
    ("Part.mfgr", 0xAC15_D692_5A83_4AB4),
    ("Part.category", 0x45AD_C712_2E6E_4835),
    ("Part.brand", 0x3BDC_76B4_9DE6_3770),
];

/// The columns `generate_snowflake` adds: Date's `mk` key and the Month table.
const SNOWFLAKE_MONTH: Pins = &[
    ("Date.mk", 0xC5B8_E943_9666_9ECB),
    ("Month.mk", 0xE554_8887_2730_8865),
    ("Month.monthnum", 0xE554_8887_2730_8865),
];

const UNIFORM_FACT: Pins = &[
    ("Lineorder.orderdate", 0x9E84_3EFB_C74D_5879),
    ("Lineorder.custkey", 0x04AE_2C47_4ABF_241F),
    ("Lineorder.suppkey", 0x6AF8_994D_6306_46A1),
    ("Lineorder.partkey", 0x108B_CBD2_D507_90B6),
    ("Lineorder.quantity", 0x9B67_4724_F019_8902),
    ("Lineorder.revenue", 0x459F_7495_79B6_2D22),
    ("Lineorder.supplycost", 0xCD1B_C442_3560_DB54),
];

const EXPONENTIAL_FACT: Pins = &[
    ("Lineorder.orderdate", 0xF938_9DB8_724D_D0A0),
    ("Lineorder.custkey", 0xA5F7_FFD7_FD9F_46B4),
    ("Lineorder.suppkey", 0x5829_37F5_172C_0292),
    ("Lineorder.partkey", 0x8292_4FFD_2266_9EE4),
    ("Lineorder.quantity", 0x7EB4_1AB1_0BF3_BF32),
    ("Lineorder.revenue", 0x720F_C673_256D_C858),
    ("Lineorder.supplycost", 0x586E_6D34_A692_574B),
];

const GAMMA_FACT: Pins = &[
    ("Lineorder.orderdate", 0x3473_4E51_2478_CF48),
    ("Lineorder.custkey", 0xA8E2_3D34_82A2_68AB),
    ("Lineorder.suppkey", 0x80F3_1A4B_631A_9616),
    ("Lineorder.partkey", 0x1403_58F0_4B54_362B),
    ("Lineorder.quantity", 0xECEB_413B_BA99_5A4B),
    ("Lineorder.revenue", 0x5117_5CEF_7D6A_C4EF),
    ("Lineorder.supplycost", 0x613D_0BEC_5A1A_1CAC),
];

const MIXTURE_FACT: Pins = &[
    ("Lineorder.orderdate", 0x720A_756F_3140_0D6C),
    ("Lineorder.custkey", 0x1310_D436_3BA6_CC3B),
    ("Lineorder.suppkey", 0x27FB_9C83_CC02_2643),
    ("Lineorder.partkey", 0x109F_F070_F24B_D8A1),
    ("Lineorder.quantity", 0xB35E_EA2D_DFF8_9549),
    ("Lineorder.revenue", 0x09BB_3D25_5DC8_35AA),
    ("Lineorder.supplycost", 0x5B52_5345_E90F_E298),
];

const HOT_SUPPLIER_FACT: Pins = &[
    ("Lineorder.orderdate", 0x9E84_3EFB_C74D_5879),
    ("Lineorder.custkey", 0x04AE_2C47_4ABF_241F),
    ("Lineorder.suppkey", 0x95BF_EE4C_5468_D128),
    ("Lineorder.partkey", 0x108B_CBD2_D507_90B6),
    ("Lineorder.quantity", 0x9B67_4724_F019_8902),
    ("Lineorder.revenue", 0x459F_7495_79B6_2D22),
    ("Lineorder.supplycost", 0xCD1B_C442_3560_DB54),
];

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
}

fn push_table(table: &Table, out: &mut Vec<(String, u64)>) {
    for column in table.columns() {
        let fingerprint = match column.data() {
            ColumnData::Key(v) | ColumnData::Code { values: v, .. } => {
                fnv1a(v.iter().flat_map(|x| x.to_le_bytes()))
            }
            ColumnData::Measure(v) => fnv1a(v.iter().flat_map(|x| x.to_le_bytes())),
        };
        out.push((format!("{}.{}", table.name(), column.name()), fingerprint));
    }
}

/// `Table.column` fingerprints in schema order: each dimension, then its
/// sub-dimensions, then the fact table.
fn fingerprints(schema: &StarSchema) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for dim in schema.dims() {
        push_table(&dim.table, &mut out);
        for sub in &dim.subdims {
            push_table(&sub.table, &mut out);
        }
    }
    push_table(schema.fact(), &mut out);
    out
}

fn assert_pinned(schema: &StarSchema, pins: &[Pins]) {
    let got = fingerprints(schema);
    let want: Vec<(String, u64)> =
        pins.iter().flat_map(|p| p.iter()).map(|&(c, f)| (c.to_string(), f)).collect();
    let names = |v: &[(String, u64)]| v.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want), "column set changed");
    let moved: Vec<_> = got.iter().zip(&want).filter(|(g, w)| g != w).map(|(g, _)| g).collect();
    assert!(moved.is_empty(), "columns off their golden fingerprints: {moved:#X?}");
}

fn config(distribution: FactDistribution) -> SsbConfig {
    SsbConfig { scale: 0.01, seed: 42, distribution, hot: None }
}

#[test]
fn uniform_instance_is_pinned() {
    let schema = generate(&config(FactDistribution::Uniform)).unwrap();
    assert_pinned(&schema, &[DIMENSIONS, UNIFORM_FACT]);
}

#[test]
fn exponential_instance_is_pinned() {
    let schema = generate(&config(FactDistribution::Exponential { rate: 1.0 })).unwrap();
    assert_pinned(&schema, &[DIMENSIONS, EXPONENTIAL_FACT]);
}

#[test]
fn gamma_instance_is_pinned() {
    let schema = generate(&config(FactDistribution::Gamma { shape: 2.0, scale: 0.125 })).unwrap();
    assert_pinned(&schema, &[DIMENSIONS, GAMMA_FACT]);
}

#[test]
fn gaussian_mixture_instance_is_pinned() {
    let mixture = FactDistribution::GaussianMixture(vec![(0.8, 0.2, 0.05), (0.2, 0.8, 0.05)]);
    let schema = generate(&config(mixture)).unwrap();
    assert_pinned(&schema, &[DIMENSIONS, MIXTURE_FACT]);
}

#[test]
fn hot_spot_instance_is_pinned() {
    let mut cfg = config(FactDistribution::Uniform);
    cfg.hot = Some(HotSpot { dim: "Supplier".into(), key: 7, fanout: 1_000 });
    let schema = generate(&cfg).unwrap();
    assert_pinned(&schema, &[DIMENSIONS, HOT_SUPPLIER_FACT]);
}

#[test]
fn snowflake_instance_is_pinned() {
    let schema = generate_snowflake(&config(FactDistribution::Uniform)).unwrap();
    let (date, rest) = DIMENSIONS.split_at(4);
    assert_pinned(&schema, &[date, SNOWFLAKE_MONTH, rest, UNIFORM_FACT]);
}
