//! Closed-form timing oracles: cycle counts derived by hand from the
//! `OooConfig` parameters, sharing no code with the timing model.
//!
//! Each microprogram is one loop of `k` body ops closed by
//! `add r2, r2, 1` and `br lt r2, iters`. Running it for M and for 2M
//! iterations and subtracting cancels everything outside the steady
//! state — cold caches, predictor warm-up, the exit misprediction, the
//! pipeline fill and drain — so `cycles(2M) − cycles(M)` is exactly M
//! steady-state iterations:
//!
//! * a dependent chain of `k` ops of one latency class takes
//!   `k × latency` cycles per iteration, since each op waits for the
//!   previous one and the two loop ops fit beside it;
//! * `k` independent adds spread over 8 registers take `(k + 2) / width`
//!   cycles per iteration, the fetch and commit width bound, when
//!   `k + 2` is a multiple of the width and no register carries more
//!   than that many adds per iteration.
//!
//! Both engines must agree with each other and with the formula.

use probranch::prelude::*;

/// Steady-state iterations: the difference between a 2M- and an
/// M-iteration run.
const M: i64 = 200;

/// Body sizes: `k + 2` is a multiple of 4 and of 8, so the width bound
/// is exact on both cores.
const BODY_OPS: [u64; 3] = [6, 14, 30];

/// The loop body of one microprogram.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// `add r1, r1, 1`, `k` times: one dependent integer chain.
    AddChain,
    /// `mul r1, r1, 3`, `k` times: one dependent multiply chain.
    MulChain,
    /// `fadd r1, r1, r3`, `k` times: one dependent FP-add chain.
    FaddChain,
    /// `add rX, rX, 1` over r8..r15 in turn, `k` times: independent
    /// adds, at most `ceil(k / 8)` per register per iteration.
    IndependentAdds,
}

/// The microprogram: `body` repeated `k` times in a loop of `iters`
/// iterations.
fn microprogram(body: Body, k: u64, iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 1);
    b.li(Reg::R2, 0);
    b.lif(Reg::R3, 1.0);
    for i in 0..8 {
        b.li(Reg::new(8 + i).expect("register"), 0);
    }
    let top = b.here("top");
    for i in 0..k {
        match body {
            Body::AddChain => b.add(Reg::R1, Reg::R1, 1),
            Body::MulChain => b.mul(Reg::R1, Reg::R1, 3),
            Body::FaddChain => b.fadd(Reg::R1, Reg::R1, Reg::R3),
            Body::IndependentAdds => {
                let r = Reg::new(8 + (i % 8) as u32).expect("register");
                b.add(r, r, 1)
            }
        };
    }
    b.add(Reg::R2, Reg::R2, 1);
    b.br(CmpOp::Lt, Reg::R2, iters, top);
    b.out(Reg::R1, 0);
    b.halt();
    b.build().expect("microprogram builds")
}

/// Cycles per steady-state iteration, from the core's parameters.
fn expected_per_iteration(body: Body, k: u64, core: &OooConfig) -> u64 {
    let l = &core.latencies;
    match body {
        Body::AddChain => k * l.int_alu,
        Body::MulChain => k * l.int_mul,
        Body::FaddChain => k * l.fp_add,
        Body::IndependentAdds => (k + 2) / u64::from(core.width),
    }
}

/// The timing statistics of a run under `engine`.
fn timing(engine: EngineKind, program: &Program, cfg: &SimConfig) -> (u64, u64) {
    let t = Simulation::new(engine)
        .run(program, cfg)
        .expect("microprogram runs")
        .timing;
    (t.cycles, t.instructions)
}

#[test]
fn steady_state_loops_take_their_closed_form_cycles() {
    for core in [OooConfig::default(), OooConfig::wide()] {
        let cfg = SimConfig {
            core: core.clone(),
            ..SimConfig::default()
        };
        for body in [
            Body::AddChain,
            Body::MulChain,
            Body::FaddChain,
            Body::IndependentAdds,
        ] {
            for k in BODY_OPS {
                let what = format!("{body:?}, k = {k}, width {}", core.width);
                assert_eq!((k + 2) % u64::from(core.width), 0, "{what}");
                let [short, long] = [M, 2 * M].map(|iters| {
                    let program = microprogram(body, k, iters);
                    let reference = timing(EngineKind::Reference, &program, &cfg);
                    let replay = timing(EngineKind::Replay, &program, &cfg);
                    assert_eq!(replay, reference, "engines disagree, {what}");
                    reference
                });
                let m = M as u64;
                assert_eq!(long.1 - short.1, m * (k + 2), "instructions, {what}");
                assert_eq!(
                    long.0 - short.0,
                    m * expected_per_iteration(body, k, &core),
                    "cycles over {m} steady-state iterations, {what}"
                );
            }
        }
    }
}
