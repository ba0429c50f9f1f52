//! The one way an integration test reaches the figure suite: the `fig`
//! executable with a figure (or `merge` / `trajectory`) as its command.

use std::process::Command;

/// `fig <name>`, ready for the figure's flags.
pub fn fig(name: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig"));
    cmd.arg(name);
    cmd
}
