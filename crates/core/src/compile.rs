//! Lowering: every clause expression compiled once, before any tuple.
//!
//! [`Expr::eval`] walks a clause's tree for every tuple: it matches on
//! each node, checks which context the clause provides, and clones
//! values out of [`crate::EvalCtx`]'s options. [`Program::lower`] does
//! that work once, when [`crate::SamplingOperator::new`] builds the
//! operator: each clause is lowered under the [`Scope`] it runs in, so
//! a node that reads context its clause lacks becomes a closure that
//! returns the same [`OpError::MissingContext`] the tree walker would.
//! Literals, slot reads and `Column / U64 literal` become inline nodes
//! of [`CompiledExpr`]; every other node becomes a closure over its
//! lowered children. A literal right operand is captured instead of
//! evaluated, `sfun(..) = TRUE` compares the call's boolean inside the
//! call, and predicates (WHERE, CLEANING WHEN/BY, HAVING) return `bool`
//! instead of [`Value::Bool`]. SFUN and scalar arguments are evaluated
//! into an array of exactly the call's arity.
//!
//! Values, errors, and the order in which arguments and SFUNs run are
//! those of [`Expr::eval`], which stays as the reference the compiled
//! form is tested against.

use std::any::Any;
use std::convert::Infallible;
use std::sync::Arc;

use sso_types::{Tuple, Value};

use crate::agg::{AggSpec, AggState};
use crate::error::OpError;
use crate::expr::{BinOp, Expr};
use crate::operator::OperatorSpec;
use crate::scalar::ScalarFn;
use crate::sfun::SfunFn;
use crate::superagg::SuperAggState;

/// The context a clause provides, known when the clause is lowered.
/// The clause name goes into [`OpError::MissingContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// Clause name, for error messages.
    pub clause: &'static str,
    /// The input tuple's columns.
    pub tuple: bool,
    /// Group-by variable values.
    pub group_vars: bool,
    /// The group's aggregates.
    pub aggs: bool,
    /// The supergroup's superaggregates.
    pub superaggs: bool,
    /// The supergroup's SFUN states.
    pub states: bool,
}

impl Scope {
    /// A clause that sees only the input tuple (GROUP BY, routing keys,
    /// a shared prefilter).
    pub const fn tuple_only(clause: &'static str) -> Scope {
        Scope {
            clause,
            tuple: true,
            group_vars: false,
            aggs: false,
            superaggs: false,
            states: false,
        }
    }

    /// GROUP BY: the input tuple only.
    pub const GROUP_BY: Scope = Scope::tuple_only("GROUP BY");
    /// WHERE: tuple, group-by values, superaggregates, SFUN states.
    pub const WHERE: Scope = Scope {
        clause: "WHERE",
        tuple: true,
        group_vars: true,
        aggs: false,
        superaggs: true,
        states: true,
    };
    /// Per-tuple superaggregate argument (`sum$(x)`).
    pub const SUPERAGG_TUPLE: Scope = Scope {
        clause: "SUPERAGG",
        tuple: true,
        group_vars: true,
        aggs: false,
        superaggs: false,
        states: true,
    };
    /// Superaggregate argument over a group's key, evaluated when the
    /// group joins or leaves its supergroup (`Kth_smallest_value$(HX, k)`).
    pub const SUPERAGG_GROUP: Scope = Scope {
        clause: "SUPERAGG",
        tuple: false,
        group_vars: true,
        aggs: false,
        superaggs: false,
        states: false,
    };
    /// Aggregate argument (`sum(len)`).
    pub const AGGREGATE: Scope = Scope {
        clause: "AGGREGATE",
        tuple: true,
        group_vars: true,
        aggs: false,
        superaggs: false,
        states: true,
    };
    /// CLEANING WHEN: as WHERE.
    pub const CLEANING_WHEN: Scope = Scope { clause: "CLEANING WHEN", ..Scope::WHERE };
    /// CLEANING BY: a group's key and aggregates, no tuple.
    pub const CLEANING_BY: Scope = Scope {
        clause: "CLEANING BY",
        tuple: false,
        group_vars: true,
        aggs: true,
        superaggs: true,
        states: true,
    };
    /// HAVING: as CLEANING BY.
    pub const HAVING: Scope = Scope { clause: "HAVING", ..Scope::CLEANING_BY };
    /// SELECT: as CLEANING BY.
    pub const SELECT: Scope = Scope { clause: "SELECT", ..Scope::CLEANING_BY };
}

/// What a compiled clause reads. Nothing is optional: context a clause
/// lacks was resolved to an error when it was lowered, so those fields
/// are left empty.
pub struct Env<'a> {
    /// The input tuple's values.
    pub tuple: &'a [Value],
    /// Group-by values: computed per tuple, or the group key.
    pub group_vars: &'a [Value],
    /// The current group's aggregates.
    pub aggs: &'a [AggState],
    /// The current supergroup's superaggregates.
    pub superaggs: &'a [SuperAggState],
    /// The current supergroup's SFUN states, one per library.
    pub states: &'a mut [Box<dyn Any + Send>],
}

impl<'a> Env<'a> {
    /// An environment holding just an input tuple.
    pub fn tuple(t: &'a Tuple) -> Env<'a> {
        Env { tuple: t.values(), group_vars: &[], aggs: &[], superaggs: &[], states: &mut [] }
    }
}

type ValueFn = dyn Fn(&mut Env<'_>) -> Result<Value, OpError> + Send + Sync;
type PredFn = dyn Fn(&mut Env<'_>) -> Result<bool, OpError> + Send + Sync;

/// An expression lowered for one scope: literals, slot reads (column,
/// group-by variable, aggregate, superaggregate) and `Column / U64` are
/// resolved in place, anything else is a closure over lowered children.
pub struct CompiledExpr(Node);

enum Node {
    /// A literal.
    Literal(Value),
    /// An input column.
    Column(usize),
    /// A group-by variable.
    GroupVar(usize),
    /// An aggregate slot.
    Aggregate(usize),
    /// A superaggregate slot.
    SuperAgg(usize),
    /// An input column divided by a nonzero `U64` literal (`time/60`).
    ColumnDiv(usize, u64),
    /// Anything else.
    Closure(Box<ValueFn>),
}

impl CompiledExpr {
    /// Lower `expr` for a clause running in `scope`.
    pub fn lower(expr: &Expr, scope: Scope) -> CompiledExpr {
        value(expr, scope)
    }

    /// Can evaluation never fail? True of literals and column reads:
    /// skipping one changes no error a clause would raise.
    fn is_infallible(&self) -> bool {
        matches!(self.0, Node::Literal(_) | Node::Column(_))
    }

    fn closure(f: impl Fn(&mut Env<'_>) -> Result<Value, OpError> + Send + Sync + 'static) -> Self {
        CompiledExpr(Node::Closure(Box::new(f)))
    }

    /// Evaluate against `env`; same result as [`Expr::eval`] on the
    /// equivalent [`crate::EvalCtx`].
    #[inline(always)]
    pub fn eval(&self, env: &mut Env<'_>) -> Result<Value, OpError> {
        match &self.0 {
            Node::Literal(v) => Ok(v.clone()),
            Node::Column(i) => Ok(env.tuple.get(*i).cloned().unwrap_or(Value::Null)),
            Node::GroupVar(i) => Ok(env.group_vars.get(*i).cloned().unwrap_or(Value::Null)),
            Node::Aggregate(i) => env
                .aggs
                .get(*i)
                .map(AggState::value)
                .ok_or_else(|| OpError::InvalidSpec(format!("aggregate slot {i} out of range"))),
            Node::SuperAgg(i) => env.superaggs.get(*i).map(SuperAggState::value).ok_or_else(|| {
                OpError::InvalidSpec(format!("superaggregate slot {i} out of range"))
            }),
            Node::ColumnDiv(i, d) => match env.tuple.get(*i) {
                Some(Value::U64(a)) => Ok(Value::U64(a / d)),
                other => Ok(other.unwrap_or(&Value::Null).div(&Value::U64(*d))?),
            },
            Node::Closure(f) => f(env),
        }
    }

    /// Feed the value to `h`. A plain column read hashes the tuple's
    /// value in place (routing keys are usually plain columns).
    #[inline]
    pub fn hash_into<H: std::hash::Hasher>(
        &self,
        env: &mut Env<'_>,
        h: &mut H,
    ) -> Result<(), OpError> {
        use std::hash::Hash;
        match &self.0 {
            Node::Column(i) => env.tuple.get(*i).unwrap_or(&Value::Null).hash(h),
            _ => self.eval(env)?.hash(h),
        }
        Ok(())
    }
}

impl std::fmt::Debug for CompiledExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Node::Literal(v) => write!(f, "Literal({v})"),
            Node::Column(i) => write!(f, "Column({i})"),
            Node::GroupVar(i) => write!(f, "GroupVar({i})"),
            Node::Aggregate(i) => write!(f, "Aggregate({i})"),
            Node::SuperAgg(i) => write!(f, "SuperAgg({i})"),
            Node::ColumnDiv(i, d) => write!(f, "ColumnDiv({i}, {d})"),
            Node::Closure(_) => f.write_str("Closure"),
        }
    }
}

/// An expression lowered as a predicate: a closure returning its
/// truthiness.
pub struct CompiledPred(Box<PredFn>);

impl CompiledPred {
    /// Lower `expr` as a predicate for a clause running in `scope`.
    pub fn lower(expr: &Expr, scope: Scope) -> CompiledPred {
        CompiledPred(pred(expr, scope))
    }

    /// Evaluate against `env`; same result as [`Expr::eval_bool`].
    #[inline]
    pub fn eval(&self, env: &mut Env<'_>) -> Result<bool, OpError> {
        (self.0)(env)
    }
}

impl std::fmt::Debug for CompiledPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CompiledPred")
    }
}

/// One superaggregate slot's compiled arguments.
pub(crate) struct CompiledSuperAgg {
    /// `sum$(x)`'s per-tuple argument.
    pub(crate) on_tuple: Option<CompiledExpr>,
    /// The group-key argument of `Kth_smallest_value$`, `min$`, `max$`.
    pub(crate) on_group: Option<CompiledExpr>,
}

/// Every clause of an [`OperatorSpec`], lowered.
pub(crate) struct Program {
    /// GROUP BY expressions evaluated before WHERE, with their index:
    /// window and supergroup variables, those WHERE reads, and any that
    /// can fail.
    pub(crate) group_by: Vec<(usize, CompiledExpr)>,
    /// The rest — plain column reads and literals, which cannot fail —
    /// evaluated only for a tuple WHERE admits.
    pub(crate) group_by_admitted: Vec<(usize, CompiledExpr)>,
    pub(crate) where_clause: Option<CompiledPred>,
    /// One per aggregate slot; `None` for `count(*)`.
    pub(crate) aggregates: Vec<Option<CompiledExpr>>,
    pub(crate) superaggs: Vec<CompiledSuperAgg>,
    pub(crate) cleaning_when: Option<CompiledPred>,
    pub(crate) cleaning_by: Option<CompiledPred>,
    pub(crate) having: Option<CompiledPred>,
    pub(crate) select: Vec<CompiledExpr>,
}

impl Program {
    /// Lower every clause of `spec`.
    pub(crate) fn lower(spec: &OperatorSpec) -> Program {
        let pred = |e: &Option<Expr>, s| e.as_ref().map(|e| CompiledPred::lower(e, s));
        let mut read_by_where = Vec::new();
        if let Some(w) = &spec.where_clause {
            let Ok(()) = w.walk(&mut |node| {
                if let Expr::GroupVar(i) = node {
                    read_by_where.push(*i);
                }
                Ok::<_, Infallible>(())
            });
        }
        let (group_by, group_by_admitted) = spec
            .group_by
            .iter()
            .enumerate()
            .map(|(i, (_, e))| (i, value(e, Scope::GROUP_BY)))
            .partition(|(i, e)| {
                spec.where_clause.is_none()
                    || !e.is_infallible()
                    || spec.window_indices.contains(i)
                    || spec.supergroup_indices.contains(i)
                    || read_by_where.contains(i)
            });
        Program {
            group_by,
            group_by_admitted,
            where_clause: pred(&spec.where_clause, Scope::WHERE),
            aggregates: spec
                .aggregates
                .iter()
                .map(|a| a.arg().map(|e| value(e, Scope::AGGREGATE)))
                .collect(),
            superaggs: spec
                .superaggs
                .iter()
                .map(|s| CompiledSuperAgg {
                    on_tuple: s.tuple_arg().map(|e| value(e, Scope::SUPERAGG_TUPLE)),
                    on_group: s.group_arg().map(|e| value(e, Scope::SUPERAGG_GROUP)),
                })
                .collect(),
            cleaning_when: pred(&spec.cleaning_when, Scope::CLEANING_WHEN),
            cleaning_by: pred(&spec.cleaning_by, Scope::CLEANING_BY),
            having: pred(&spec.having, Scope::HAVING),
            select: spec.select.iter().map(|(_, e)| value(e, Scope::SELECT)).collect(),
        }
    }
}

impl OperatorSpec {
    /// Every clause expression with the scope it is lowered under, in
    /// clause order: GROUP BY, WHERE, superaggregate arguments,
    /// aggregate arguments, CLEANING WHEN, CLEANING BY, HAVING, SELECT.
    pub fn clause_exprs(&self) -> Vec<(Scope, &Expr)> {
        let mut out = Vec::new();
        let Ok(()) = self.for_each_clause(|scope, e| {
            out.push((scope, e));
            Ok::<_, Infallible>(())
        });
        out
    }

    /// Call `f` on each of [`Self::clause_exprs`], stopping at the first
    /// error.
    pub(crate) fn for_each_clause<'a, E>(
        &'a self,
        mut f: impl FnMut(Scope, &'a Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        for (_, e) in &self.group_by {
            f(Scope::GROUP_BY, e)?;
        }
        if let Some(e) = &self.where_clause {
            f(Scope::WHERE, e)?;
        }
        for s in &self.superaggs {
            if let Some(e) = s.tuple_arg() {
                f(Scope::SUPERAGG_TUPLE, e)?;
            }
            if let Some(e) = s.group_arg() {
                f(Scope::SUPERAGG_GROUP, e)?;
            }
        }
        for e in self.aggregates.iter().filter_map(AggSpec::arg) {
            f(Scope::AGGREGATE, e)?;
        }
        let tail = [
            (Scope::CLEANING_WHEN, &self.cleaning_when),
            (Scope::CLEANING_BY, &self.cleaning_by),
            (Scope::HAVING, &self.having),
        ];
        for (scope, e) in tail {
            if let Some(e) = e {
                f(scope, e)?;
            }
        }
        for (_, e) in &self.select {
            f(Scope::SELECT, e)?;
        }
        Ok(())
    }
}

fn missing(what: &'static str, clause: &'static str) -> CompiledExpr {
    CompiledExpr::closure(move |_| Err(OpError::MissingContext { what, clause }))
}

fn value(e: &Expr, s: Scope) -> CompiledExpr {
    match e {
        Expr::Literal(v) => CompiledExpr(Node::Literal(v.clone())),
        Expr::Column(i) if s.tuple => CompiledExpr(Node::Column(*i)),
        Expr::Column(_) => missing("input column", s.clause),
        Expr::GroupVar(i) if s.group_vars => CompiledExpr(Node::GroupVar(*i)),
        Expr::GroupVar(_) => missing("group-by variable", s.clause),
        Expr::Aggregate(i) if s.aggs => CompiledExpr(Node::Aggregate(*i)),
        Expr::Aggregate(_) => missing("aggregate", s.clause),
        Expr::SuperAgg(i) if s.superaggs => CompiledExpr(Node::SuperAgg(*i)),
        Expr::SuperAgg(_) => missing("superaggregate", s.clause),
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Add => arith(lhs, rhs, s, |a, b| a.add(b)),
            BinOp::Sub => arith(lhs, rhs, s, |a, b| a.sub(b)),
            BinOp::Mul => arith(lhs, rhs, s, |a, b| a.mul(b)),
            BinOp::Div => match (&**lhs, &**rhs) {
                (Expr::Column(i), Expr::Literal(Value::U64(d))) if s.tuple && *d != 0 => {
                    CompiledExpr(Node::ColumnDiv(*i, *d))
                }
                _ => arith(lhs, rhs, s, |a, b| a.div(b)),
            },
            BinOp::Rem => arith(lhs, rhs, s, |a, b| a.rem(b)),
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => boolean(e, s),
        },
        Expr::Not(_) => boolean(e, s),
        Expr::Sfun { lib, name, fun, args } => {
            CompiledExpr(Node::Closure(sfun_call(*lib, name, fun, args, s, Ok)))
        }
        Expr::Scalar { name, fun, args } => scalar(name, fun, args, s),
    }
}

/// A predicate-shaped node in value position: `Value::Bool` of its
/// truthiness.
fn boolean(e: &Expr, s: Scope) -> CompiledExpr {
    let p = pred(e, s);
    CompiledExpr::closure(move |env| Ok(Value::Bool(p(env)?)))
}

/// `lhs op rhs` for an arithmetic `op`, both sides evaluated left to
/// right; a literal right operand is captured.
fn arith<F>(lhs: &Expr, rhs: &Expr, s: Scope, f: F) -> CompiledExpr
where
    F: Fn(&Value, &Value) -> Result<Value, sso_types::TypeError> + Send + Sync + 'static,
{
    let l = value(lhs, s);
    match rhs {
        Expr::Literal(b) => {
            let b = b.clone();
            CompiledExpr::closure(move |env| Ok(f(&l.eval(env)?, &b)?))
        }
        _ => {
            let r = value(rhs, s);
            CompiledExpr::closure(move |env| {
                let a = l.eval(env)?;
                let b = r.eval(env)?;
                Ok(f(&a, &b)?)
            })
        }
    }
}

fn pred(e: &Expr, s: Scope) -> Box<PredFn> {
    use std::cmp::Ordering::{Greater, Less};
    match e {
        Expr::Literal(v) => {
            let b = v.truthy();
            Box::new(move |_| Ok(b))
        }
        Expr::Not(inner) => {
            let p = pred(inner, s);
            Box::new(move |env| Ok(!p(env)?))
        }
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            let (l, r) = (pred(lhs, s), pred(rhs, s));
            Box::new(move |env| Ok(l(env)? && r(env)?))
        }
        Expr::Binary { op: BinOp::Or, lhs, rhs } => {
            let (l, r) = (pred(lhs, s), pred(rhs, s));
            Box::new(move |env| Ok(l(env)? || r(env)?))
        }
        Expr::Binary { op: BinOp::Eq, lhs, rhs } => match **rhs {
            // `ssample(len, N) = TRUE`: the SFUN answers a boolean; the
            // comparison is fused into the call.
            Expr::Literal(Value::Bool(want)) => {
                let is = move |v: Value| match v {
                    Value::Bool(got) => Ok(got == want),
                    other => Ok(other.eq_value(&Value::Bool(want))?),
                };
                match &**lhs {
                    Expr::Sfun { lib, name, fun, args } => sfun_call(*lib, name, fun, args, s, is),
                    _ => {
                        let l = value(lhs, s);
                        Box::new(move |env| is(l.eval(env)?))
                    }
                }
            }
            _ => compare(lhs, rhs, s, |a, b| a.eq_value(b)),
        },
        Expr::Binary { op: BinOp::Ne, lhs, rhs } => {
            compare(lhs, rhs, s, |a, b| Ok(!a.eq_value(b)?))
        }
        Expr::Binary { op: BinOp::Lt, lhs, rhs } => {
            compare(lhs, rhs, s, |a, b| Ok(a.compare(b)? == Less))
        }
        Expr::Binary { op: BinOp::Le, lhs, rhs } => {
            compare(lhs, rhs, s, |a, b| Ok(a.compare(b)? != Greater))
        }
        Expr::Binary { op: BinOp::Gt, lhs, rhs } => {
            compare(lhs, rhs, s, |a, b| Ok(a.compare(b)? == Greater))
        }
        Expr::Binary { op: BinOp::Ge, lhs, rhs } => {
            compare(lhs, rhs, s, |a, b| Ok(a.compare(b)? != Less))
        }
        _ => {
            let v = value(e, s);
            Box::new(move |env| Ok(v.eval(env)?.truthy()))
        }
    }
}

/// A comparison, both sides evaluated left to right; a literal right
/// operand is captured.
fn compare<F>(lhs: &Expr, rhs: &Expr, s: Scope, f: F) -> Box<PredFn>
where
    F: Fn(&Value, &Value) -> Result<bool, sso_types::TypeError> + Send + Sync + 'static,
{
    let l = value(lhs, s);
    match rhs {
        Expr::Literal(b) => {
            let b = b.clone();
            Box::new(move |env| Ok(f(&l.eval(env)?, &b)?))
        }
        _ => {
            let r = value(rhs, s);
            Box::new(move |env| {
                let a = l.eval(env)?;
                let b = r.eval(env)?;
                Ok(f(&a, &b)?)
            })
        }
    }
}

/// Evaluate `args` left to right into an array of exactly `N` values.
#[inline]
fn eval_args<const N: usize>(
    args: &[CompiledExpr; N],
    env: &mut Env<'_>,
) -> Result<[Value; N], OpError> {
    let mut argv: [Value; N] = std::array::from_fn(|_| Value::Null);
    for (slot, a) in argv.iter_mut().zip(args) {
        *slot = a.eval(env)?;
    }
    Ok(argv)
}

/// A boxed closure returning `R`: a call site's compiled form.
type CallFn<R> = Box<dyn Fn(&mut Env<'_>) -> Result<R, OpError> + Send + Sync>;

/// A call whose arguments are evaluated into `[Value; N]` before
/// `body` runs.
fn call_n<const N: usize, R, C>(args: &[Expr], s: Scope, body: C) -> CallFn<R>
where
    C: Fn(&mut Env<'_>, &[Value]) -> Result<R, OpError> + Send + Sync + 'static,
{
    let args: [CompiledExpr; N] = std::array::from_fn(|i| value(&args[i], s));
    Box::new(move |env| {
        let argv = eval_args(&args, env)?;
        body(env, &argv)
    })
}

/// Dispatch on arity so the argument array is exactly the call's size;
/// calls wider than four (none in the built-in libraries) collect into
/// a `Vec` of that size.
fn call<R: 'static, C>(args: &[Expr], s: Scope, body: C) -> CallFn<R>
where
    C: Fn(&mut Env<'_>, &[Value]) -> Result<R, OpError> + Send + Sync + 'static,
{
    match args.len() {
        0 => call_n::<0, R, C>(args, s, body),
        1 => call_n::<1, R, C>(args, s, body),
        2 => call_n::<2, R, C>(args, s, body),
        3 => call_n::<3, R, C>(args, s, body),
        4 => call_n::<4, R, C>(args, s, body),
        _ => {
            let args: Vec<CompiledExpr> = args.iter().map(|a| value(a, s)).collect();
            Box::new(move |env| {
                let mut argv = Vec::with_capacity(args.len());
                for a in &args {
                    argv.push(a.eval(env)?);
                }
                body(env, &argv)
            })
        }
    }
}

/// An SFUN call whose result goes through `then` (the identity in value
/// position; a fused comparison in `sfun(..) = TRUE`).
fn sfun_call<R: 'static, F>(
    lib: usize,
    name: &'static str,
    fun: &Arc<SfunFn>,
    args: &[Expr],
    s: Scope,
    then: F,
) -> CallFn<R>
where
    F: Fn(Value) -> Result<R, OpError> + Send + Sync + 'static,
{
    let clause = s.clause;
    if !s.states {
        // Arguments still run (and may fail) first, as in the tree walker.
        return call(args, s, move |_, _| {
            Err(OpError::MissingContext { what: "stateful function state", clause })
        });
    }
    let fun = Arc::clone(fun);
    call(args, s, move |env, argv| {
        let state = env
            .states
            .get_mut(lib)
            .ok_or_else(|| OpError::InvalidSpec(format!("sfun library slot {lib} out of range")))?;
        let v = fun(state.as_mut(), argv)
            .map_err(|reason| OpError::BadSfunCall { function: name.to_string(), reason })?;
        then(v)
    })
}

fn scalar(name: &'static str, fun: &Arc<ScalarFn>, args: &[Expr], s: Scope) -> CompiledExpr {
    let fun = Arc::clone(fun);
    CompiledExpr(Node::Closure(call(args, s, move |_, argv| {
        fun(argv).map_err(|reason| OpError::BadScalarCall { function: name.to_string(), reason })
    })))
}
