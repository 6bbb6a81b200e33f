//! Fuzzing the strict JSON parser (`gpu_sim::json::parse`) that every
//! plan, trace and metrics document goes through:
//!
//! - arbitrary strings, biased towards JSON's own tokens, never panic;
//! - single-byte mutations of a serialized single-device, 2-device
//!   sharded and 2-device row-split plan never panic, in the parser nor
//!   in the plan's own schema validator (`validate_*_plan_json`);
//! - every generated `Json` tree with finite numbers round-trips:
//!   `parse(&v.to_string()) == Ok(v)`.

use gpu_sim::json::{parse, Json};
use gpu_sim::{DeviceGroup, DeviceSpec};
use proptest::prelude::*;
use std::sync::OnceLock;
use tridiag_gpu::plan::SolvePlan;
use tridiag_gpu::{
    validate_distributed_plan_json, validate_plan_json, validate_sharded_plan_json,
    GpuSolverConfig, GpuTridiagSolver,
};

/// Characters the string fuzzer draws from besides random code points:
/// JSON structure, literals, number and escape syntax, and whitespace.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\u00", "-", "+", ".", "e", "E", "0", "1",
    "9", "true", "false", "null", "tru", "nul", " ", "\n", "\t", "\u{0}", "\u{1f}", "é", "𝄞",
];

/// Build a string from draws: each picks a token or a code point.
fn fuzz_string(draws: &[u32]) -> String {
    let mut s = String::new();
    for &d in draws {
        if d % 3 != 0 {
            s.push_str(TOKENS[(d / 3) as usize % TOKENS.len()]);
        } else if let Some(c) = char::from_u32(d / 3 % 0x11_0000) {
            s.push(c);
        }
    }
    s
}

/// Deterministic generator for `Json` trees (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn number(&mut self) -> f64 {
        match self.below(4) {
            0 => self.below(2_000_001) as f64 - 1_000_000.0,
            1 => (self.below(2_000_001) as f64 - 1_000_000.0) / 1024.0,
            2 => (self.next() as i64) as f64,
            _ => loop {
                let x = f64::from_bits(self.next());
                if x.is_finite() {
                    break x;
                }
            },
        }
    }

    fn string(&mut self) -> String {
        let len = self.below(8);
        (0..len)
            .map(|_| match self.below(6) {
                0 => ['"', '\\', '\n', '\r', '\t', '/'][self.below(6) as usize],
                1 => char::from_u32(self.below(0x20) as u32).expect("control char"),
                2 => ['é', 'Ω', '中', '𝄞', '\u{7f}', '\u{fffd}'][self.below(6) as usize],
                _ => (b'a' + self.below(26) as u8) as char,
            })
            .collect()
    }

    fn tree(&mut self, depth: u32) -> Json {
        let leaf = depth == 0 || self.below(3) == 0;
        match if leaf {
            self.below(4)
        } else {
            4 + self.below(2)
        } {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 1),
            2 => Json::Num(self.number()),
            3 => Json::Str(self.string()),
            4 => Json::Arr((0..self.below(5)).map(|_| self.tree(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.below(5))
                    // The suffix keeps keys unique: the parser rejects
                    // duplicate keys.
                    .map(|i| (format!("{}#{i}", self.string()), self.tree(depth - 1)))
                    .collect(),
            ),
        }
    }
}

fn plan_document() -> Vec<u8> {
    let plan = SolvePlan::build(
        &DeviceSpec::gtx480(),
        &GpuSolverConfig::default(),
        64,
        512,
        8,
    )
    .expect("the (64, 512) f64 plan builds");
    plan.to_json().to_string().into_bytes()
}

/// A serialized plan and the validator of its schema.
type PlanDoc = (Vec<u8>, fn(&Json) -> Vec<String>);

/// The single-device plan of [`plan_document`], a 2-device sharded
/// plan and a 2-device row-split plan, each with its validator.
fn plan_documents() -> &'static [PlanDoc; 3] {
    static DOCS: OnceLock<[PlanDoc; 3]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let solver = GpuTridiagSolver::gtx480();
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), 2).expect("a 2-device group");
        let sharded = solver
            .plan_geometry_group(&group, 64, 512, 8)
            .expect("the (64, 512) f64 sharded plan builds");
        let split = solver
            .plan_geometry_split(&group, 16384, 8)
            .expect("the 16384-row f64 split plan builds");
        [
            (plan_document(), validate_plan_json),
            (
                sharded.to_json().to_string().into_bytes(),
                validate_sharded_plan_json,
            ),
            (
                split.to_json().to_string().into_bytes(),
                validate_distributed_plan_json,
            ),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_strings_never_panic(draws in prop::collection::vec(any::<u32>(), 0..64)) {
        let text = fuzz_string(&draws);
        let _ = parse(&text);
    }

    #[test]
    fn mutated_plan_documents_never_panic(
        which in 0usize..3,
        at in any::<usize>(),
        byte in any::<u8>(),
        op in 0u8..3,
    ) {
        let (doc, validate) = &plan_documents()[which];
        let mut doc = doc.clone();
        let at = at % doc.len();
        match op {
            0 => doc[at] = byte,
            1 => doc.insert(at, byte),
            _ => {
                doc.remove(at);
            }
        }
        if let Ok(json) = parse(&String::from_utf8_lossy(&doc)) {
            let _ = validate(&json);
        }
    }

    #[test]
    fn generated_trees_round_trip(seed in any::<u64>()) {
        let v = Gen(seed).tree(4);
        prop_assert_eq!(parse(&v.to_string()), Ok(v.clone()), "document {}", v);
    }
}

#[test]
fn the_unmutated_plan_document_parses() {
    for (doc, validate) in plan_documents() {
        let text = String::from_utf8(doc.clone()).expect("the writer emits UTF-8");
        let json = parse(&text).expect("the writer emits JSON");
        assert_eq!(validate(&json), Vec::<String>::new(), "{text}");
    }
}
