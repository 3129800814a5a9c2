//! Fuzzes the two hand-rolled text parsers, `Checkpoint::parse` and
//! `DeviceSpec::parse`, with the vendored proptest.
//!
//! Both read files a user may hand in, so on any input they must return
//! `Ok` or `Err` and never panic. The inputs are:
//!
//! * arbitrary strings stitched from grammar keywords, boundary numbers
//!   and random characters;
//! * single-line mutations of every shipped `registry/devices/*.toml`
//!   spec;
//! * single-line mutations of saved checkpoints, re-sealed with a fresh
//!   FNV-1a checksum so the structural checks behind the checksum are
//!   reached.
//!
//! A single-bit flip in a checkpoint that is *not* re-sealed must always be
//! rejected.

use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::{Checkpoint, ModelArch, ParamStore};
use adept_photonics::{DeviceSpec, FaultKind, FaultScenario};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Keywords of both grammars plus boundary values of their number fields.
const TOKENS: &[&str] = &[
    "adept-checkpoint v1",
    "model",
    "proxy_cnn",
    "backend",
    "mzi",
    "topology",
    "ublock",
    "vblock",
    "noise_seed",
    "fault_seed",
    "fault",
    "dead_shifter",
    "stuck_shifter",
    "quant",
    "fault_fp",
    "params",
    "param",
    "state",
    "stat",
    "end",
    "[device]",
    "[pdk]",
    "[noise]",
    "[faults]",
    "[topology]",
    "name",
    "kind",
    "k",
    "block",
    "blocks",
    "quant_bits",
    "=",
    "\"",
    "|",
    "#",
    "-",
    "\n",
];

/// Replacement values for one token of a mutated line.
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "-1",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "3ff0000000000000",
    "ffffffffffffffff",
    "7ff8000000000000",
    "1e400",
    "nan",
    "inf",
    "\"\"",
    "\"",
    "|",
    "zz",
    "é",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.next_u32() as usize % items.len()]
}

fn arbitrary_text() -> impl Strategy<Value = String> {
    Just(()).prop_perturb(|_, mut rng| {
        let mut text = String::new();
        for _ in 0..rng.next_u32() % 96 {
            match rng.next_u32() % 4 {
                0 => text.push(char::from_u32(rng.next_u32() % 0x250).unwrap_or('?')),
                1 => text.push_str(pick(&mut rng, VALUES)),
                _ => text.push_str(pick(&mut rng, TOKENS)),
            }
            text.push(if rng.next_u32() % 5 == 0 { '\n' } else { ' ' });
        }
        text
    })
}

/// One random single-line edit: delete, duplicate, truncate, or replace or
/// insert one token.
fn mutate_one_line(lines: &[&str], rng: &mut TestRng) -> Vec<String> {
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    if out.is_empty() {
        return out;
    }
    let i = rng.next_u32() as usize % out.len();
    let mut tokens: Vec<String> = out[i].split(' ').map(str::to_owned).collect();
    let t = rng.next_u32() as usize % tokens.len();
    match rng.next_u32() % 5 {
        0 => {
            out.remove(i);
            return out;
        }
        1 => {
            let line = out[i].clone();
            out.insert(i, line);
            return out;
        }
        2 => {
            let cut = rng.next_u32() as usize % (out[i].len() + 1);
            let cut = (0..=cut)
                .rev()
                .find(|&c| out[i].is_char_boundary(c))
                .unwrap();
            out[i].truncate(cut);
            return out;
        }
        3 => tokens[t] = pick(rng, VALUES).to_owned(),
        _ => tokens.insert(t, pick(rng, VALUES).to_owned()),
    }
    out[i] = tokens.join(" ");
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Body lines of a sealed checkpoint, without the `end <checksum>` line.
fn body_lines(sealed: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = sealed.lines().collect();
    assert!(lines.pop().unwrap().starts_with("end "));
    lines
}

/// Joins body lines and appends a matching `end <checksum>` line.
fn reseal(lines: &[String]) -> String {
    let mut body = lines.join("\n");
    body.push('\n');
    let sum = fnv1a(body.as_bytes());
    body.push_str(&format!("end {sum:016x}\n"));
    body
}

/// Saved checkpoints covering both backend grammars and every fault record.
fn saved_checkpoints() -> &'static [String] {
    static SAVED: OnceLock<Vec<String>> = OnceLock::new();
    SAVED.get_or_init(|| {
        let fault = FaultScenario::new(3)
            .with(FaultKind::DeadShifter { p: 0.1 })
            .with(FaultKind::StuckShifter {
                p: 0.05,
                theta: 0.5,
            })
            .with(FaultKind::DeadCoupler { p: 0.02 })
            .with(FaultKind::ThermalDrift { std: 0.01 })
            .with(FaultKind::PhaseQuantization { bits: 6 });
        [
            (Backend::Mzi { k: 4 }, None),
            (Backend::butterfly(4), Some(fault)),
        ]
        .into_iter()
        .map(|(backend, fault)| {
            let mut store = ParamStore::new();
            let input = InputShape::new(1, 4, 4);
            let model = proxy_cnn(&mut store, input, 2, 3, &backend, 9);
            let arch = ModelArch::ProxyCnn {
                input,
                channels: 2,
                classes: 3,
                seed: 9,
            };
            let ckpt = Checkpoint::capture(arch, &backend, &model, &store, 5, fault.as_ref());
            ckpt.to_text()
        })
        .collect()
    })
}

fn shipped_specs() -> &'static [String] {
    static SPECS: OnceLock<Vec<String>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/registry/devices");
        let mut specs: Vec<String> = std::fs::read_dir(dir)
            .expect("registry/devices ships with the repo")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("toml"))
            .map(|p| std::fs::read_to_string(p).unwrap())
            .collect();
        specs.sort();
        assert!(specs.len() >= 2, "expected the shipped device specs");
        specs
    })
}

/// Runs `parse` and fails the test, naming the input, if it panics.
fn assert_no_panic<T, E>(what: &str, text: &str, parse: impl FnOnce(&str) -> Result<T, E>) {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse(text).is_ok()));
    assert!(outcome.is_ok(), "{what} panicked on {text:?}");
}

#[test]
fn shipped_inputs_parse_before_mutation() {
    for text in saved_checkpoints() {
        Checkpoint::parse(text).unwrap();
    }
    for text in shipped_specs() {
        DeviceSpec::parse(text).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic_either_parser(text in arbitrary_text()) {
        assert_no_panic("Checkpoint::parse", &text, Checkpoint::parse);
        assert_no_panic("DeviceSpec::parse", &text, DeviceSpec::parse);
        // The same text behind a valid header and checksum reaches the
        // checkpoint's structural checks.
        let mut lines = vec!["adept-checkpoint v1".to_owned()];
        lines.extend(text.lines().map(str::to_owned));
        assert_no_panic("Checkpoint::parse", &reseal(&lines), Checkpoint::parse);
    }

    #[test]
    fn mutated_device_specs_never_panic(
        mutated in Just(()).prop_perturb(|_, mut rng| {
            let specs = shipped_specs();
            let spec = &specs[rng.next_u32() as usize % specs.len()];
            let lines: Vec<&str> = spec.lines().collect();
            mutate_one_line(&lines, &mut rng).join("\n")
        }),
    ) {
        assert_no_panic("DeviceSpec::parse", &mutated, DeviceSpec::parse);
    }

    #[test]
    fn resealed_checkpoint_mutations_never_panic(
        mutated in Just(()).prop_perturb(|_, mut rng| {
            let saved = saved_checkpoints();
            let text = &saved[rng.next_u32() as usize % saved.len()];
            reseal(&mutate_one_line(&body_lines(text), &mut rng))
        }),
    ) {
        assert_no_panic("Checkpoint::parse", &mutated, Checkpoint::parse);
    }

    #[test]
    fn unsealed_single_bit_flips_are_rejected(
        flip in (0usize..2, 0usize..1 << 20, 0u32..8),
    ) {
        let saved = saved_checkpoints();
        let (which, pos, bit) = flip;
        let mut bytes = saved[which].clone().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        // A flip that breaks UTF-8 is refused when the file is read.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            prop_assert!(
                Checkpoint::parse(text).is_err(),
                "bit {bit} of byte {pos} flipped in checkpoint {which} was accepted"
            );
        }
    }
}
