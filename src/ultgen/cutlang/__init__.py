"""CUT-lang front end: lexer, parser, AST nodes, canonical printer."""
