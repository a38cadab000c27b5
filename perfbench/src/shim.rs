//! Timing shims for the traced run.
//!
//! [`TimedNode`] wraps any [`Node`] and [`TimedProgram`] wraps any
//! [`PipelineProgram`]; each times every call into its inner value from the
//! outside with [`Instant`] and forwards everything else unchanged, so the
//! simulation itself (and its trace digest) is untouched. Each shim keeps its
//! own busy-time total in a plain field: a node is only ever called from one
//! thread at a time, parallel backend included, so no synchronization is
//! needed and nothing is process-global.

use extmem_sim::{Node, NodeCtx};
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::PortId;
use extmem_wire::Packet;
use std::any::Any;
use std::time::Instant;

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A node whose every callback is timed.
pub struct TimedNode {
    inner: Box<dyn Node>,
    busy_ns: u64,
}

impl TimedNode {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Node>) -> TimedNode {
        TimedNode { inner, busy_ns: 0 }
    }

    /// The wrapped node, downcast to its concrete type.
    pub fn inner<T: Node>(&self) -> &T {
        let any: &dyn Any = &*self.inner;
        any.downcast_ref::<T>().unwrap_or_else(|| {
            panic!(
                "{} is not a {}",
                self.inner.name(),
                std::any::type_name::<T>()
            )
        })
    }

    /// Mutable variant of [`TimedNode::inner`].
    pub fn inner_mut<T: Node>(&mut self) -> &mut T {
        let name = self.inner.name().to_owned();
        let any: &mut dyn Any = &mut *self.inner;
        any.downcast_mut::<T>()
            .unwrap_or_else(|| panic!("{name} is not a {}", std::any::type_name::<T>()))
    }

    /// Host nanoseconds spent inside the wrapped node's callbacks.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

impl Node for TimedNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        let t = Instant::now();
        self.inner.on_packet(ctx, port, packet);
        self.busy_ns += elapsed_ns(t);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.busy_ns += elapsed_ns(t);
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, port: PortId) {
        let t = Instant::now();
        self.inner.on_tx_done(ctx, port);
        self.busy_ns += elapsed_ns(t);
    }

    fn on_crash(&mut self, ctx: &mut NodeCtx<'_>) {
        let t = Instant::now();
        self.inner.on_crash(ctx);
        self.busy_ns += elapsed_ns(t);
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        let t = Instant::now();
        self.inner.on_restart(ctx);
        self.busy_ns += elapsed_ns(t);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A pipeline program whose every callback is timed (the `core` layer).
pub struct TimedProgram {
    inner: Box<dyn PipelineProgram>,
    busy_ns: u64,
}

impl TimedProgram {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn PipelineProgram>) -> TimedProgram {
        TimedProgram { inner, busy_ns: 0 }
    }

    /// The wrapped program, downcast to its concrete type.
    pub fn inner<T: PipelineProgram>(&self) -> &T {
        let any: &dyn Any = &*self.inner;
        any.downcast_ref::<T>()
            .unwrap_or_else(|| panic!("program is not a {}", std::any::type_name::<T>()))
    }

    /// Mutable variant of [`TimedProgram::inner`].
    pub fn inner_mut<T: PipelineProgram>(&mut self) -> &mut T {
        let any: &mut dyn Any = &mut *self.inner;
        any.downcast_mut::<T>()
            .unwrap_or_else(|| panic!("program is not a {}", std::any::type_name::<T>()))
    }

    /// Host nanoseconds spent inside the wrapped program's callbacks.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

impl PipelineProgram for TimedProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        let t = Instant::now();
        self.inner.ingress(ctx, in_port, pkt);
        self.busy_ns += elapsed_ns(t);
    }

    fn on_dequeue(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, port: PortId) {
        let t = Instant::now();
        self.inner.on_dequeue(ctx, port);
        self.busy_ns += elapsed_ns(t);
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.busy_ns += elapsed_ns(t);
    }

    fn program_name(&self) -> &str {
        self.inner.program_name()
    }
}
