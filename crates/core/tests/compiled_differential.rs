//! Differential test of the compiled clauses against the tree walker.
//!
//! Every clause expression of every example query (built by the
//! `queries` builders, one per `EXAMPLE_QUERIES` entry) and of the three
//! benchmark query shapes is lowered with [`CompiledExpr`] and, where
//! it can stand as a predicate, [`CompiledPred`]. Each is evaluated on
//! random tuples, group keys, aggregates and superaggregates next to
//! [`Expr::eval`], each side on its own copy of the SFUN states. The
//! returned value (floats by bit pattern), the error, and the SFUN
//! states afterwards must be identical.
//!
//! The compiled side always gets the whole environment; where its
//! scope lacks a context it must still answer `MissingContext`, exactly
//! as the tree walker does on the narrower `EvalCtx`.

use std::any::Any;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sso_core::libs::distinct::DistinctOpConfig;
use sso_core::libs::reservoir::ReservoirOpConfig;
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::queries::{self, EXAMPLE_QUERIES};
use sso_core::{
    AggSpec, AggState, BinOp, CompiledExpr, CompiledPred, Env, EvalCtx, Expr, OpError,
    OperatorSpec, Scope, SfunStates, SuperAggSpec, SuperAggState,
};
use sso_types::{Tuple, Value};

/// One builder per `EXAMPLE_QUERIES` entry (same parameters as its
/// text), then the benchmark's three shapes.
fn specs() -> Vec<(&'static str, OperatorSpec)> {
    let ss = |w, target| {
        queries::subset_sum_query(w, SubsetSumOpConfig { target, ..Default::default() }, false)
            .unwrap()
    };
    vec![
        ("total_sum_query", queries::total_sum_query(60)),
        ("subset_sum_query", ss(60, 100)),
        ("basic_subset_sum_query", queries::basic_subset_sum_query(60, 1.0).unwrap()),
        ("heavy_hitters_query", queries::heavy_hitters_query(60, 100, Some(50)).unwrap()),
        ("minhash_query", queries::minhash_query(60, 10).unwrap()),
        (
            "distinct_sample_query",
            queries::distinct_sample_query(
                60,
                DistinctOpConfig { capacity: 256, ..Default::default() },
            )
            .unwrap(),
        ),
        (
            "reservoir_query",
            queries::reservoir_query(60, ReservoirOpConfig { n: 25, ..Default::default() })
                .unwrap(),
        ),
        ("benchmark ss_sharded", ss(5, 500)),
        ("benchmark kmv_durable", queries::minhash_query(1, 10).unwrap()),
        ("benchmark hh_single", queries::heavy_hitters_query(1, 100, Some(50)).unwrap()),
    ]
}

/// Node kinds and shapes the example queries do not reach, evaluated
/// under every scope of the subset-sum spec (whose one SFUN library
/// backs the `Sfun` nodes here).
fn extra_exprs(spec: &OperatorSpec) -> Vec<Expr> {
    let lib = &spec.sfun_libs[0];
    let sfun = |name, args| queries::sfun_expr(0, lib, name, args).unwrap();
    let scalar = |name| sso_core::scalar::lookup(name).unwrap();
    let (umin, umin_fn) = scalar("UMIN");
    let (prefix, prefix_fn) = scalar("prefix");
    vec![
        Expr::Column(0).div(Expr::lit(0u64)),
        Expr::Column(1).div(Expr::Column(2)),
        Expr::bin(BinOp::Rem, Expr::Column(3), Expr::lit(7u64)),
        Expr::bin(BinOp::Mul, Expr::Column(1), Expr::lit(-3i64)),
        Expr::Column(2).sub(Expr::GroupVar(1)),
        Expr::Column(12),
        Expr::GroupVar(9),
        Expr::Aggregate(7),
        Expr::SuperAgg(7),
        Expr::Not(Box::new(Expr::Column(4))),
        Expr::bin(BinOp::Or, Expr::Column(0).eq(Expr::lit(3u64)), Expr::Column(5)),
        Expr::bin(BinOp::Ne, Expr::GroupVar(0), Expr::Column(0)),
        Expr::Column(0).lt(Expr::GroupVar(0)).and(Expr::Aggregate(0).ge(Expr::SuperAgg(0))),
        Expr::Column(1).eq(Expr::lit(true)),
        Expr::lit(2.5).gt(Expr::Column(6)),
        Expr::Scalar { name: umin, fun: umin_fn, args: vec![Expr::Column(1), Expr::GroupVar(2)] },
        Expr::Scalar { name: prefix, fun: prefix_fn, args: vec![Expr::Column(2), Expr::Column(7)] },
        sfun("ssample", vec![Expr::Column(7), Expr::lit(10u64)]).eq(Expr::lit(true)),
        sfun("ssample", vec![Expr::Column(7)]),
        sfun("ssclean_with", vec![Expr::Aggregate(0)]).eq(Expr::lit(false)),
        sfun("ssthreshold", vec![]),
        Expr::Sfun {
            lib: 3,
            name: "ssthreshold",
            fun: lib.function("ssthreshold").unwrap(),
            args: vec![],
        },
    ]
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..20u32) {
        0..=8 => Value::U64(rng.gen_range(0..24u64)),
        9..=10 => Value::U64(rng.gen()),
        11..=12 => Value::I64(rng.gen_range(-6..6i64)),
        13..=14 => Value::F64([0.0, -1.5, 2.5, 1e300, f64::NAN, 7.0][rng.gen_range(0..6usize)]),
        15..=16 => Value::Bool(rng.gen_bool(0.5)),
        17..=18 => Value::Null,
        _ => Value::str(["", "x"][rng.gen_range(0..2usize)]),
    }
}

fn random_values(rng: &mut StdRng, len: usize) -> Vec<Value> {
    // Now and then one short, so out-of-range reads are covered.
    let len = if rng.gen_bool(0.1) { rng.gen_range(0..len + 1) } else { len };
    (0..len).map(|_| random_value(rng)).collect()
}

fn random_aggs(rng: &mut StdRng, spec: &OperatorSpec) -> Vec<AggState> {
    spec.aggregates
        .iter()
        .map(|a| match a.init() {
            AggState::Count(_) => AggState::Count(rng.gen_range(0..200u64)),
            AggState::Sum(_) => AggState::Sum(random_value(rng)),
            AggState::Min(_) => AggState::Min(random_value(rng)),
            AggState::Max(_) => AggState::Max(random_value(rng)),
            AggState::First(_) => AggState::First(random_value(rng)),
            AggState::Last(_) => AggState::Last(random_value(rng)),
        })
        .collect()
}

fn random_superaggs(rng: &mut StdRng, spec: &OperatorSpec) -> Vec<SuperAggState> {
    spec.superaggs
        .iter()
        .map(|s| {
            let mut state = s.init();
            for _ in 0..rng.gen_range(0..16usize) {
                let _ = match s {
                    SuperAggSpec::CountDistinct => s.on_group_add(&mut state, None),
                    SuperAggSpec::Sum { .. } => s.on_tuple(&mut state, random_value(rng)),
                    _ => s.on_group_add(&mut state, Some(Value::U64(rng.gen_range(0..64u64)))),
                };
            }
            state
        })
        .collect()
}

/// Two copies of fresh SFUN states, one per evaluator.
fn state_pair(spec: &OperatorSpec) -> (SfunStates, SfunStates) {
    let fresh: SfunStates = spec.sfun_libs.iter().map(|l| l.init_state(None)).collect();
    let copy = copy_states(spec, &fresh);
    (fresh, copy)
}

fn copy_states(spec: &OperatorSpec, states: &SfunStates) -> SfunStates {
    encode(spec, states)
        .iter()
        .zip(&spec.sfun_libs)
        .map(|(bytes, lib)| lib.decode_state(bytes).expect("state round-trips"))
        .collect()
}

fn encode(spec: &OperatorSpec, states: &[Box<dyn Any + Send>]) -> Vec<Vec<u8>> {
    states
        .iter()
        .zip(&spec.sfun_libs)
        .map(|(s, lib)| lib.encode_state(s.as_ref()).expect("library persists its state"))
        .collect()
}

/// A value with floats by bit pattern and the variant spelled out.
fn exact(r: &Result<Value, OpError>) -> String {
    match r {
        Ok(Value::F64(f)) => format!("Ok(F64 bits {:016x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

struct Inputs {
    tuple: Tuple,
    group_vars: Vec<Value>,
    aggs: Vec<AggState>,
    superaggs: Vec<SuperAggState>,
}

impl Inputs {
    fn random(rng: &mut StdRng, spec: &OperatorSpec) -> Inputs {
        Inputs {
            tuple: Tuple::new(random_values(rng, 8)),
            group_vars: random_values(rng, spec.group_by.len()),
            aggs: random_aggs(rng, spec),
            superaggs: random_superaggs(rng, spec),
        }
    }

    fn ctx<'a>(&'a self, scope: Scope, states: &'a mut SfunStates) -> EvalCtx<'a> {
        EvalCtx {
            clause: scope.clause,
            tuple: scope.tuple.then_some(&self.tuple),
            group_vars: scope.group_vars.then_some(&self.group_vars[..]),
            aggs: scope.aggs.then_some(&self.aggs[..]),
            superaggs: scope.superaggs.then_some(&self.superaggs[..]),
            sfun_states: scope.states.then_some(&mut states[..]),
        }
    }

    fn env<'a>(&'a self, states: &'a mut SfunStates) -> Env<'a> {
        Env {
            tuple: self.tuple.values(),
            group_vars: &self.group_vars,
            aggs: &self.aggs,
            superaggs: &self.superaggs,
            states,
        }
    }
}

/// Evaluate `expr` both ways, as a value and as a predicate, each
/// evaluator on its own states; any difference is an `Err`.
fn check(
    spec: &OperatorSpec,
    scope: Scope,
    expr: &Expr,
    inputs: &Inputs,
    walker: &mut SfunStates,
    compiled: &mut SfunStates,
) -> Result<(), String> {
    let want = expr.eval(&mut inputs.ctx(scope, walker));
    let got = CompiledExpr::lower(expr, scope).eval(&mut inputs.env(compiled));
    if exact(&want) != exact(&got) {
        return Err(format!(
            "{} {expr:?}: walker {} compiled {}",
            scope.clause,
            exact(&want),
            exact(&got)
        ));
    }
    let want = expr.eval_bool(&mut inputs.ctx(scope, walker));
    let got = CompiledPred::lower(expr, scope).eval(&mut inputs.env(compiled));
    if format!("{want:?}") != format!("{got:?}") {
        return Err(format!(
            "{} {expr:?} as predicate: walker {want:?} compiled {got:?}",
            scope.clause
        ));
    }
    if encode(spec, walker) != encode(spec, compiled) {
        return Err(format!("{} {expr:?}: SFUN states diverged", scope.clause));
    }
    Ok(())
}

/// Every scope a clause can run in.
const SCOPES: [Scope; 9] = [
    Scope::GROUP_BY,
    Scope::WHERE,
    Scope::SUPERAGG_TUPLE,
    Scope::SUPERAGG_GROUP,
    Scope::AGGREGATE,
    Scope::CLEANING_WHEN,
    Scope::CLEANING_BY,
    Scope::HAVING,
    Scope::SELECT,
];

#[test]
fn builders_cover_every_example_query() {
    let names: Vec<&str> = specs().iter().map(|(n, _)| *n).collect();
    for (name, _) in EXAMPLE_QUERIES {
        assert!(names.contains(name), "no builder spec for example query {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Each case walks every spec's clauses in order, several rounds,
    /// carrying both evaluators' SFUN states forward so later calls see
    /// states earlier calls moved (thresholds raised, buckets advanced).
    #[test]
    fn compiled_clauses_match_the_tree_walker(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, spec) in specs() {
            let (mut walker, mut compiled) = state_pair(&spec);
            for _ in 0..4 {
                for (scope, expr) in spec.clause_exprs() {
                    let inputs = Inputs::random(&mut rng, &spec);
                    check(&spec, scope, expr, &inputs, &mut walker, &mut compiled)
                        .map_err(|e| format!("{name}: {e}"))?;
                }
            }
        }
    }

    /// Node kinds the example queries do not reach, under every scope.
    #[test]
    fn every_node_kind_matches_the_tree_walker_in_every_scope(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, spec) = specs().swap_remove(1);
        let (mut walker, mut compiled) = state_pair(&spec);
        for expr in extra_exprs(&spec) {
            for scope in SCOPES {
                let inputs = Inputs::random(&mut rng, &spec);
                check(&spec, scope, &expr, &inputs, &mut walker, &mut compiled)?;
            }
        }
    }
}

#[test]
fn aggregate_arguments_are_lowered_for_every_slot() {
    // `clause_exprs` lists one entry per argument-taking aggregate.
    for (name, spec) in specs() {
        let args = spec.aggregates.iter().filter(|a| !matches!(a, AggSpec::Count)).count();
        let listed = spec.clause_exprs().iter().filter(|(s, _)| *s == Scope::AGGREGATE).count();
        assert_eq!(args, listed, "{name}");
    }
}
